package olc

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/race"
)

// TestGetBatchBasic: present keys, absent keys, duplicates, and keys that
// terminate at internal nodes (prefix-leaf positions) all resolve in one
// shared descent.
func TestGetBatchBasic(t *testing.T) {
	tr := New(nil)
	loaded := [][]byte{
		[]byte("app"), []byte("apple"), []byte("apply"),
		[]byte("banana"), []byte("band"), []byte("b"),
	}
	for i, k := range loaded {
		tr.Put(k, uint64(i+1))
	}

	keys := [][]byte{
		[]byte("apple"),   // leaf
		[]byte("app"),     // prefix-leaf position
		[]byte("absent"),  // miss below an existing branch
		[]byte("apple"),   // duplicate
		[]byte("zzz"),     // miss at the root fan-out
		[]byte("b"),       // short key
		[]byte("apples "), // longer than a stored key
	}
	out := make([]BatchResult, len(keys))
	st := tr.GetBatch(keys, out)
	if st.SharedDescents != 1 {
		t.Fatalf("SharedDescents = %d, want 1", st.SharedDescents)
	}
	if st.NodesVisited == 0 {
		t.Fatal("NodesVisited = 0")
	}
	want := []BatchResult{
		{2, true}, {1, true}, {0, false}, {2, true}, {0, false}, {6, true}, {0, false},
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("key %q = %+v, want %+v", keys[i], out[i], want[i])
		}
	}
	// Cross-check every result against per-key Get.
	for i, k := range keys {
		v, ok := tr.Get(k)
		if out[i].Found != ok || out[i].Value != v {
			t.Fatalf("key %q batch %+v vs get (%d,%v)", k, out[i], v, ok)
		}
	}
}

// TestGetBatchEmptyAndLeafRoot covers the degenerate trees: empty, and a
// bare-leaf root.
func TestGetBatchEmptyAndLeafRoot(t *testing.T) {
	tr := New(nil)
	out := make([]BatchResult, 2)
	st := tr.GetBatch([][]byte{[]byte("a"), []byte("b")}, out)
	if st.SharedDescents != 0 || out[0].Found || out[1].Found {
		t.Fatalf("empty tree: st=%+v out=%v", st, out)
	}

	tr.Put([]byte("solo"), 9)
	st = tr.GetBatch([][]byte{[]byte("solo"), []byte("nope")}, out)
	if !out[0].Found || out[0].Value != 9 || out[1].Found {
		t.Fatalf("leaf root: %v", out)
	}
	if st.Anchor.Valid() {
		t.Fatal("bare-leaf root must yield no anchor")
	}
}

// TestApplyBatchOrdering: within one batch, later operations on a key must
// observe earlier ones — including across structural fallbacks (insert
// then read, delete then read, delete then re-insert).
func TestApplyBatchOrdering(t *testing.T) {
	tr := New(nil)
	tr.Put([]byte("seed:a"), 1)
	tr.Put([]byte("seed:b"), 2)

	ops := []BatchOp{
		{BatchPut, []byte("new:x"), 100},   // insert (fallback path)
		{BatchGet, []byte("new:x"), 0},     // must see 100
		{BatchPut, []byte("new:x"), 101},   // overwrite after insert (dirty path)
		{BatchGet, []byte("new:x"), 0},     // must see 101
		{BatchDelete, []byte("seed:a"), 0}, // delete existing
		{BatchGet, []byte("seed:a"), 0},    // must miss
		{BatchPut, []byte("seed:a"), 7},    // re-insert after delete
		{BatchGet, []byte("seed:a"), 0},    // must see 7
		{BatchGet, []byte("seed:b"), 0},    // untouched key via located leaf
		{BatchDelete, []byte("ghost"), 0},  // delete absent
	}
	out := make([]BatchResult, len(ops))
	tr.ApplyBatch(ops, out)

	want := []BatchResult{
		{100, false}, {100, true}, {101, true}, {101, true},
		{0, true}, {0, false}, {7, false}, {7, true},
		{2, true}, {0, false},
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("op %d (%v %q) = %+v, want %+v", i, ops[i].Kind, ops[i].Key, out[i], want[i])
		}
	}
}

// TestLocateBatchAnchor: a batch confined to one subtree yields an anchor;
// descending from it resolves the same locations; an anchor whose node
// went obsolete is refused.
func TestLocateBatchAnchor(t *testing.T) {
	tr := New(nil)
	for i := 0; i < 64; i++ {
		tr.Put([]byte(fmt.Sprintf("shared:%02d", i)), uint64(i))
	}
	keys := [][]byte{
		[]byte("shared:03"), []byte("shared:17"), []byte("shared:42"),
	}
	locs := make([]BatchLoc, len(keys))
	idx := make([]int, len(keys))
	st, ok := tr.LocateBatch(Ref{}, 16, keys, locs, idx)
	if !ok || st.SharedDescents != 1 {
		t.Fatalf("root locate: ok=%v st=%+v", ok, st)
	}
	if !st.Anchor.Valid() {
		t.Fatal("no anchor for a single-subtree batch")
	}
	for i := range keys {
		if !locs[i].Leaf.Valid() {
			t.Fatalf("key %q not located", keys[i])
		}
	}

	anchor := st.Anchor
	locs2 := make([]BatchLoc, len(keys))
	st2, ok := tr.LocateBatch(anchor, 16, keys, locs2, idx)
	if !ok {
		t.Fatal("anchored locate refused a live anchor")
	}
	if st2.NodesVisited > st.NodesVisited {
		t.Fatalf("anchored descent visited %d nodes, root descent %d",
			st2.NodesVisited, st.NodesVisited)
	}
	for i := range keys {
		v1, _ := tr.GetLeaf(locs[i].Leaf)
		v2, _ := tr.GetLeaf(locs2[i].Leaf)
		if v1 != v2 {
			t.Fatalf("key %q: anchored %d vs root %d", keys[i], v2, v1)
		}
	}

	// Force structural churn until some anchor goes obsolete, then verify
	// the stale anchor is refused (insert keys that grow nodes on the
	// shared path).
	anchor.n.obsolete.Store(true) // simulate the replacement directly
	if _, ok := tr.LocateBatch(anchor, 16, keys, locs2, idx); ok {
		t.Fatal("locate accepted an obsolete anchor")
	}
	anchor.n.obsolete.Store(false)
}

// batchOracle replays operations on a map, producing expected results.
func batchOracle(state map[string]uint64, ops []BatchOp) []BatchResult {
	out := make([]BatchResult, len(ops))
	for i, op := range ops {
		ks := string(op.Key)
		v, ok := state[ks]
		switch op.Kind {
		case BatchGet:
			out[i] = BatchResult{Value: v, Found: ok}
		case BatchPut:
			out[i] = BatchResult{Value: op.Value, Found: ok}
			state[ks] = op.Value
		case BatchDelete:
			out[i] = BatchResult{Found: ok}
			delete(state, ks)
		}
	}
	return out
}

// randomBatchKey draws from a small structured keyspace that exercises
// prefix splits (shared stems of varying length), node grows (wide fan-out
// suffixes), prefix-leaf positions (keys that are prefixes of other keys),
// and keys outside every loaded prefix.
func randomBatchKey(rng *rand.Rand) []byte {
	stems := []string{"a", "ab", "abc", "abcd", "x:", "x:longstem:", "zz"}
	s := stems[rng.Intn(len(stems))]
	switch rng.Intn(4) {
	case 0:
		return []byte(s) // the stem itself: prefix-leaf candidate
	case 1:
		return []byte(fmt.Sprintf("%s%c", s, 'a'+rng.Intn(26))) // fan-out
	case 2:
		return []byte(fmt.Sprintf("%s%03d", s, rng.Intn(300))) // grow to k48/k256
	default:
		return []byte(fmt.Sprintf("%s%c%02d", s, 'A'+rng.Intn(8), rng.Intn(40)))
	}
}

// TestBatchVsOracleProperty is the randomized property test: interleaved
// GetBatch/ApplyBatch calls (and direct per-op calls between them) must
// match a sequential map oracle exactly, across a keyspace engineered to
// hit prefix-split and node-grow paths.
func TestBatchVsOracleProperty(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := New(nil)
		state := map[string]uint64{}

		for round := 0; round < 60; round++ {
			switch rng.Intn(3) {
			case 0: // ApplyBatch
				n := 1 + rng.Intn(24)
				ops := make([]BatchOp, n)
				for i := range ops {
					ops[i] = BatchOp{
						Kind:  BatchKind(rng.Intn(3)),
						Key:   randomBatchKey(rng),
						Value: rng.Uint64() >> 1,
					}
				}
				want := batchOracle(state, ops)
				got := make([]BatchResult, n)
				tr.ApplyBatch(ops, got)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d round %d op %d (%v %q): got %+v want %+v",
							seed, round, i, ops[i].Kind, ops[i].Key, got[i], want[i])
					}
				}
			case 1: // GetBatch
				n := 1 + rng.Intn(24)
				keys := make([][]byte, n)
				for i := range keys {
					keys[i] = randomBatchKey(rng)
				}
				got := make([]BatchResult, n)
				tr.GetBatch(keys, got)
				for i, k := range keys {
					v, ok := state[string(k)]
					if got[i].Found != ok || (ok && got[i].Value != v) {
						t.Fatalf("seed %d round %d key %q: got %+v want (%d,%v)",
							seed, round, k, got[i], v, ok)
					}
				}
			default: // direct per-op interleaving
				for i := 0; i < 8; i++ {
					k := randomBatchKey(rng)
					switch rng.Intn(3) {
					case 0:
						v, ok := tr.Get(k)
						ev, eok := state[string(k)]
						if ok != eok || (ok && v != ev) {
							t.Fatalf("seed %d: direct get %q = (%d,%v) want (%d,%v)",
								seed, k, v, ok, ev, eok)
						}
					case 1:
						v := rng.Uint64() >> 1
						tr.Put(k, v)
						state[string(k)] = v
					default:
						tr.Delete(k)
						delete(state, string(k))
					}
				}
			}
		}
		if tr.Len() != len(state) {
			t.Fatalf("seed %d: tree has %d keys, oracle %d", seed, tr.Len(), len(state))
		}
	}
}

// TestBatchConcurrent is the -race stress: goroutines run mixed batches on
// disjoint namespaces (exact oracle per goroutine) while also issuing
// read-only batches across the whole tree (pure race coverage; values are
// not asserted cross-namespace).
func TestBatchConcurrent(t *testing.T) {
	tr := New(nil)
	const G, rounds = 6, 40
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 7))
			state := map[string]uint64{}
			prefix := fmt.Sprintf("g%d:", g)
			for r := 0; r < rounds; r++ {
				n := 1 + rng.Intn(16)
				ops := make([]BatchOp, n)
				for i := range ops {
					ops[i] = BatchOp{
						Kind:  BatchKind(rng.Intn(3)),
						Key:   []byte(prefix + string(randomBatchKey(rng))),
						Value: rng.Uint64() >> 1,
					}
				}
				want := batchOracle(state, ops)
				got := make([]BatchResult, n)
				tr.ApplyBatch(ops, got)
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("g%d r%d op %d (%v %q): got %+v want %+v",
							g, r, i, ops[i].Kind, ops[i].Key, got[i], want[i])
						return
					}
				}
				// Cross-tree read batch: race coverage only.
				keys := make([][]byte, 8)
				for i := range keys {
					keys[i] = []byte(fmt.Sprintf("g%d:%s", rng.Intn(G), randomBatchKey(rng)))
				}
				out := make([]BatchResult, len(keys))
				tr.GetBatch(keys, out)
				// Own-namespace results within the cross batch are exact.
				for i, k := range keys {
					if !bytes.HasPrefix(k, []byte(prefix)) {
						continue
					}
					v, ok := state[string(k)]
					if out[i].Found != ok || (ok && out[i].Value != v) {
						t.Errorf("g%d: cross-batch own key %q = %+v want (%d,%v)",
							g, k, out[i], v, ok)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestAllocBudgetLocateBatch: with caller-owned locs and idx scratch a
// shared descent allocates nothing, from the root or from an anchor.
func TestAllocBudgetLocateBatch(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	tr := New(nil)
	var keys [][]byte
	for i := 0; i < 1024; i++ {
		k := []byte(fmt.Sprintf("ip:%02x:%04d", i%64, i))
		tr.Put(k, uint64(i))
		if i%16 == 0 {
			keys = append(keys, k)
		}
	}
	locs := make([]BatchLoc, len(keys))
	idx := make([]int, len(keys))
	st, _ := tr.LocateBatch(Ref{}, 16, keys, locs, idx)
	for _, from := range []Ref{{}, st.Anchor} {
		if n := testing.AllocsPerRun(100, func() {
			if _, ok := tr.LocateBatch(from, 16, keys, locs, idx); !ok {
				t.Fatal("descent refused")
			}
		}); n != 0 {
			t.Errorf("LocateBatch from %+v: %v allocs/op, want 0", from, n)
		}
	}
	for i, k := range keys {
		if !locs[i].Leaf.Valid() {
			t.Fatalf("key %q not located", k)
		}
	}
}
