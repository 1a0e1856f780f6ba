package pctt

import (
	"sync/atomic"

	"repro/internal/olc"
)

// scTable is the worker-private Shortcut_Table: an open-addressed
// linear-probe map from key hash to leaf reference. It replaces a Go map
// on the trigger hot path for the same reason the grouping table does
// (worker.gtab): one probe is two compares on a flat slice, there is no
// per-insert allocation in steady state, and the table never has to hash —
// the key's hash is computed once at submit and carried in the task.
//
// The table is keyed purely by hash: a hash collision between two live
// keys resolves last-writer-wins (the caller verifies the leaf's own key on
// every hit, so a collision is just a miss). The table stores no key bytes
// of its own: a task's key belongs to its producer, who may reuse the
// buffer the moment the token resolves, while the leaf's key is the tree's
// immutable copy.
//
// Entries are never removed one by one. A deleted key's entry goes stale —
// its leaf is obsolete, which every use of a leaf reference checks — and is
// overwritten when the key returns or wiped with everything else at the
// next epoch eviction (maintain).
type scTable struct {
	slots []scSlot
	mask  uint64
	live  int
	// liveA mirrors live for cross-goroutine gauge reads (the obs layer's
	// shortcut-occupancy gauge); only the owning worker writes it.
	liveA atomic.Int64
}

// scSlot is one table slot, empty while its leaf reference is invalid.
type scSlot struct {
	hash uint64
	leaf olc.LeafRef
}

// scInitSlots is the initial table size; the table doubles at 50% load so
// light uses (unit tests, small keyspaces) stay small.
const scInitSlots = 1024

func newSCTable() *scTable {
	t := &scTable{slots: make([]scSlot, scInitSlots)}
	t.mask = uint64(len(t.slots) - 1)
	return t
}

// get returns the entry for hash, or nil.
func (t *scTable) get(hash uint64) *scSlot {
	for pos := hash & t.mask; ; pos = (pos + 1) & t.mask {
		s := &t.slots[pos]
		switch {
		case !s.leaf.Valid():
			return nil
		case s.hash == hash:
			return s
		}
	}
}

// put inserts or overwrites the entry for hash.
func (t *scTable) put(hash uint64, leaf olc.LeafRef) {
	for pos := hash & t.mask; ; pos = (pos + 1) & t.mask {
		s := &t.slots[pos]
		switch {
		case !s.leaf.Valid():
			s.hash, s.leaf = hash, leaf
			t.live++
			t.liveA.Store(int64(t.live))
			return
		case s.hash == hash:
			s.leaf = leaf
			return
		}
	}
}

// maintain keeps the table healthy after an insert: at shortcutCap entries
// it clears wholesale (epoch eviction, keeping the backing array);
// otherwise it doubles at 50% occupancy, which stops by itself at the size
// that holds shortcutCap entries at that load.
func (t *scTable) maintain() {
	if t.live >= shortcutCap {
		clear(t.slots)
		t.live = 0
		t.liveA.Store(0)
		return
	}
	if 2*t.live < len(t.slots) {
		return
	}
	old := t.slots
	t.slots = make([]scSlot, 2*len(old))
	t.mask = uint64(len(t.slots) - 1)
	t.live = 0
	for i := range old {
		if old[i].leaf.Valid() {
			t.put(old[i].hash, old[i].leaf)
		}
	}
}
