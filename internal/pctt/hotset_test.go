package pctt

import (
	"fmt"
	"testing"

	"repro/internal/metrics"
	"repro/internal/olc"
	"repro/internal/workload"
)

// anchorFor runs one shared batch descent over keys and returns its anchor
// (a real interior node reference, depth > 0 for multi-key subtrees).
func anchorFor(t *testing.T, tr *olc.Tree, keys [][]byte) olc.Ref {
	t.Helper()
	locs := make([]olc.BatchLoc, len(keys))
	st, ok := tr.LocateBatch(olc.Ref{}, 16, keys, locs, make([]int, len(keys)))
	if !ok {
		t.Fatal("root LocateBatch reported a stale anchor")
	}
	if !st.Anchor.Valid() {
		t.Fatal("no anchor for a common-prefix batch")
	}
	return st.Anchor
}

// TestHotsetPolicy exercises the residency mechanics directly: insert,
// value accrual, capacity admission (value-aware, not LRU), eviction of
// the cheapest resident anchor, invalidation, and path-buffer copying.
func TestHotsetPolicy(t *testing.T) {
	tr := olc.New(metrics.NewSet())
	sub := func(stem string) [][]byte {
		var ks [][]byte
		for i := 0; i < 8; i++ {
			k := []byte(fmt.Sprintf("%s%d\x00", stem, i))
			tr.Put(k, uint64(i))
			ks = append(ks, k)
		}
		return ks
	}
	aa, bb, cc := sub("aa:"), sub("bb:"), sub("cc:")

	h := newHotset(2)
	if h == nil {
		t.Fatal("capN=2 returned nil hotset")
	}
	if hs := newHotset(0); hs != nil {
		t.Fatal("capN=0 must disable the hotset")
	}

	anchorA := anchorFor(t, tr, aa)
	// The path must be copied out of the caller's key buffer.
	volatileKey := append([]byte(nil), aa[0]...)
	if h.put(1, anchorA, volatileKey, 100) {
		t.Fatal("insert into empty set reported an eviction")
	}
	for i := range volatileKey {
		volatileKey[i] = 0xFF
	}
	ref, path, ok := h.get(1)
	if !ok || !ref.Valid() {
		t.Fatal("anchor not resident after put")
	}
	if len(path) != ref.Depth() || !covers(aa, ref.Depth(), path) {
		t.Fatalf("stored path %q does not cover its own keys (depth %d)", path, ref.Depth())
	}

	if h.put(2, anchorFor(t, tr, bb), bb[0], 10) {
		t.Fatal("insert below capacity reported an eviction")
	}
	if h.liveA.Load() != 2 {
		t.Fatalf("liveA = %d, want 2", h.liveA.Load())
	}

	// At capacity: a cheap newcomer must be refused (value-aware, the
	// paper's §III-E replacement), a valuable one must displace the
	// cheapest resident entry — bucket 2 (value 10), not bucket 1 (100).
	anchorC := anchorFor(t, tr, cc)
	if h.put(3, anchorC, cc[0], 5) {
		t.Fatal("cheap newcomer evicted a resident anchor")
	}
	if _, _, ok := h.get(3); ok {
		t.Fatal("cheap newcomer was admitted at capacity")
	}
	if !h.put(3, anchorC, cc[0], 50) {
		t.Fatal("valuable newcomer was not admitted")
	}
	if _, _, ok := h.get(2); ok {
		t.Fatal("eviction removed the wrong bucket (2 was cheapest)")
	}
	if _, _, ok := h.get(1); !ok {
		t.Fatal("eviction removed the most valuable bucket")
	}

	// Refreshing a resident bucket accrues value instead of reinserting.
	if h.put(3, anchorC, cc[0], 60) {
		t.Fatal("refresh of a resident bucket reported an eviction")
	}

	h.invalidate(1)
	if _, _, ok := h.get(1); ok {
		t.Fatal("anchor survived invalidation")
	}
	if h.liveA.Load() != 1 {
		t.Fatalf("liveA after invalidate = %d, want 1", h.liveA.Load())
	}
	h.invalidate(1) // absent: no-op
}

// TestHotsetBookkeepingBounded: refreshing resident anchors must leave no
// per-put state behind — after any number of puts the hotset holds its
// capN entries and nothing else (the slot index is a fixed array).
func TestHotsetBookkeepingBounded(t *testing.T) {
	tr := olc.New(metrics.NewSet())
	var keys [][]byte
	for i := 0; i < 8; i++ {
		k := []byte(fmt.Sprintf("hs:%d\x00", i))
		tr.Put(k, uint64(i))
		keys = append(keys, k)
	}
	anchor := anchorFor(t, tr, keys)

	const capN = 64
	h := newHotset(capN)
	for i := 0; i < 100_000; i++ {
		h.put(i%capN, anchor, keys[0], int64(1+i%7))
	}
	if len(h.entries) != capN || cap(h.entries) != capN {
		t.Fatalf("hotset holds %d entries (cap %d) after 100000 puts over %d buckets, want exactly %d",
			len(h.entries), cap(h.entries), capN, capN)
	}
	if h.liveA.Load() != capN {
		t.Fatalf("liveA = %d, want %d", h.liveA.Load(), capN)
	}
	resident := 0
	for b, i := range h.slot {
		if i == 0 {
			continue
		}
		resident++
		if h.entries[i-1].bucket != b {
			t.Fatalf("slot[%d] points at entry of bucket %d", b, h.entries[i-1].bucket)
		}
	}
	if resident != capN {
		t.Fatalf("%d buckets resident, want %d", resident, capN)
	}
}

// TestSharedDescentAndHotset drives a multi-worker engine through an
// insert-heavy workload twice and asserts the traverse phase actually
// exercised the new machinery: shared batch descents ran, hot-node anchors
// became resident and served repeat batches, and the final tree state still
// matches a sequential replay.
func TestSharedDescentAndHotset(t *testing.T) {
	w := testWorkload(t, 3000, 30000, 45)
	e := New(Config{Workers: 2, ChunkSize: 64})
	e.Load(w.Keys, nil)
	e.Run(w.Ops)
	e.Run(w.Ops) // warm pass: anchors from run 1 serve run 2's descents
	if n := e.HotsetCount(); n == 0 {
		t.Fatal("no hot-node anchors resident after two runs")
	}
	if err := e.Close(); err != nil { // drain: final batch counters flush
		t.Fatal(err)
	}

	ms := e.Metrics()
	if ms.Get(metrics.CtrSharedDescents) == 0 {
		t.Fatal("no shared batch descents recorded")
	}
	if ms.Get(metrics.CtrHotsetHit) == 0 {
		t.Fatal("no hotset hits: anchors never served a descent")
	}
	if ms.Get(metrics.CtrHotsetHit)+ms.Get(metrics.CtrHotsetMiss) == 0 {
		t.Fatal("locate phase never consulted the hotset")
	}

	// Replay ops twice over the loaded keys: run 2 reapplied the stream.
	ref := map[string]uint64{}
	for i, k := range w.Keys {
		ref[string(k)] = uint64(i)
	}
	for pass := 0; pass < 2; pass++ {
		for _, op := range w.Ops {
			switch op.Kind {
			case workload.Write:
				ref[string(op.Key)] = op.Value
			case workload.Delete:
				delete(ref, string(op.Key))
			}
		}
	}
	if e.Tree().Len() != len(ref) {
		t.Fatalf("tree has %d keys, reference %d", e.Tree().Len(), len(ref))
	}
	for ks, want := range ref {
		if got, ok := e.Tree().Get([]byte(ks)); !ok || got != want {
			t.Fatalf("key %q = (%d,%v), want %d", ks, got, ok, want)
		}
	}
}
