package pctt

import (
	"bytes"
	"sync/atomic"

	"repro/internal/olc"
)

// hotset is the worker-private software Tree_buffer (paper §III-E): a
// small cache of decoded interior-node references ("anchors"), one per
// combine bucket, ranked by bucket-population value under the accel
// simulator's value-aware replacement rule. A resident anchor lets the
// bucket's next batch descent (olc.LocateBatch) start below the root,
// skipping the shared upper levels entirely — generalizing the leaf-only
// Shortcut_Table to interior nodes.
//
// The residency ranking is exactly the paper's: the value of a cached node
// is the population of operations flowing through its bucket, and a new
// bucket displaces the cheapest resident one only when its first batch has
// proven more valuable. The set is small (HotsetCap, default 64), so the
// cheapest resident is found by scanning it on admission: there is no
// per-put bookkeeping beyond the entries themselves. Anchors self-validate
// through the olc obsolete flag — LocateBatch refuses a stale anchor and
// the worker invalidates the entry.
//
// A hotset is goroutine-local to its worker; liveA mirrors the population
// for the obs layer's occupancy gauge.
type hotset struct {
	entries []hotEntry // resident anchors, at most cap(entries)
	// slot maps a bucket to its entry: index into entries plus one, zero
	// when the bucket has no resident anchor.
	slot  [nBuckets]int16
	liveA atomic.Int64
}

// hotEntry is one resident anchor. path holds the anchor's leading key
// bytes (length == anchor.Depth()); before descending from the anchor the
// worker verifies every batch key carries these bytes, which is what makes
// a from-anchor descent sound for keys that never loaded the bucket's
// common prefix.
type hotEntry struct {
	bucket int
	anchor olc.Ref
	path   []byte
	value  int64
}

// newHotset returns a hotset bounded to capN anchors, or nil when the
// feature is disabled (capN <= 0); a nil hotset reads as always-miss. One
// anchor per bucket is all there is to hold, so capN beyond nBuckets buys
// nothing.
func newHotset(capN int) *hotset {
	if capN <= 0 {
		return nil
	}
	if capN > nBuckets {
		capN = nBuckets
	}
	return &hotset{entries: make([]hotEntry, 0, capN)}
}

// get returns the resident anchor for a bucket.
func (h *hotset) get(bucket int) (olc.Ref, []byte, bool) {
	i := h.slot[bucket]
	if i == 0 {
		return olc.Ref{}, nil, false
	}
	e := &h.entries[i-1]
	return e.anchor, e.path, true
}

// put inserts or refreshes the bucket's anchor, crediting delta (the
// operations the bucket's batch just executed) to its value. At capacity
// the new bucket is admitted only when its first batch outweighs the
// cheapest resident one, which it then replaces; evicted reports that
// displacement. pathSrc is a task key owned by a producer: the anchor bytes
// are copied so the entry survives the key buffer's reuse.
func (h *hotset) put(bucket int, anchor olc.Ref, pathSrc []byte, delta int64) (evicted bool) {
	d := anchor.Depth()
	i := int(h.slot[bucket]) - 1
	if i >= 0 {
		e := &h.entries[i]
		e.value += delta
		e.anchor = anchor
		e.path = append(e.path[:0], pathSrc[:d]...)
		return false
	}
	if len(h.entries) < cap(h.entries) {
		i = len(h.entries)
		h.entries = append(h.entries, hotEntry{})
		h.liveA.Store(int64(len(h.entries)))
	} else {
		i = 0
		for k := range h.entries {
			if h.entries[k].value < h.entries[i].value {
				i = k
			}
		}
		if delta <= h.entries[i].value {
			return false
		}
		h.slot[h.entries[i].bucket] = 0
		evicted = true
	}
	e := &h.entries[i]
	*e = hotEntry{bucket: bucket, anchor: anchor, path: append(e.path[:0], pathSrc[:d]...), value: delta}
	h.slot[bucket] = int16(i + 1)
	return evicted
}

// invalidate drops the bucket's anchor (its node went obsolete); the last
// entry takes the vacated place.
func (h *hotset) invalidate(bucket int) {
	i := int(h.slot[bucket]) - 1
	if i < 0 {
		return
	}
	h.slot[bucket] = 0
	last := len(h.entries) - 1
	if i != last {
		h.entries[i] = h.entries[last]
		h.slot[h.entries[i].bucket] = int16(i + 1)
	}
	h.entries[last] = hotEntry{}
	h.entries = h.entries[:last]
	h.liveA.Store(int64(last))
}

// covers reports whether an anchor at the given depth/path can serve every
// key: each key must be at least depth bytes long and carry the anchor's
// path bytes. One short or divergent key disqualifies the whole batch —
// the descent then starts from the root, which is always sound.
func covers(keys [][]byte, depth int, path []byte) bool {
	for _, k := range keys {
		if len(k) < depth || !bytes.Equal(k[:depth], path) {
			return false
		}
	}
	return true
}
