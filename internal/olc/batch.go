package olc

import (
	"bytes"
	"slices"
	"sync/atomic"
)

// Batch API: one sorted, lock-coupled descent serves a whole batch of
// keys. This is the software form of the paper's Trigger property — one
// traversal and one per-node lock acquisition amortized over every
// operation that passes through that node — and of the level-wise batch
// search used by FPGA B+-tree accelerators: keys are sorted once, then the
// tree is walked top-down with each node visited exactly once per batch,
// the key set partitioned into per-child runs as the walk descends.
//
// Concurrency: the descent uses the same hand-over-hand read-lock coupling
// as Get and Walk (the child's lock is acquired before the parent's is
// released), so every node is observed in a consistent state and writers
// are excluded per-node, never globally. Like Walk, a batch is not a
// snapshot: operations racing the descent may land before or after
// individual keys' visits. Each key's result linearizes at its own leaf
// access, which is exactly the contract per-key callers already have.

// BatchKind selects the operation an ApplyBatch entry performs.
type BatchKind uint8

const (
	BatchGet BatchKind = iota
	BatchPut
	BatchDelete
)

// BatchOp is one entry in an ApplyBatch call.
type BatchOp struct {
	Kind  BatchKind
	Key   []byte
	Value uint64 // BatchPut only
}

// BatchResult is one entry's outcome: for a get, the value and presence;
// for a put, whether an existing value was replaced; for a delete, whether
// the key was present.
type BatchResult struct {
	Value uint64
	Found bool
}

// BatchLoc is the location information one shared descent yields for one
// key: the key's live leaf (when present) and the deepest internal node
// entered on the key's path (the insert anchor a structural fallback
// starts from).
type BatchLoc struct {
	Leaf LeafRef
	Ins  Ref
}

// BatchStats summarizes one shared descent (or one Get/ApplyBatch call).
type BatchStats struct {
	// SharedDescents is 1 when a lock-coupled batch traversal ran (0 for an
	// empty batch or an empty tree).
	SharedDescents int
	// NodesVisited counts tree nodes the shared descent touched — the
	// quantity a per-key execution would multiply by the batch size.
	NodesVisited int
	// Fallbacks counts operations that could not be served from their
	// located position and fell back to a per-key root operation.
	Fallbacks int
	// Anchor is the deepest internal node through which EVERY key of the
	// batch descended, bounded by the anchorMaxDepth passed to LocateBatch.
	// Callers cache it (the P-CTT hotset) to start the bucket's next batch
	// descent below the root. Invalid when the batch spread across subtrees
	// above the bound or the tree is rooted at a bare leaf.
	Anchor Ref
}

// LocateBatch resolves every key's location in one shared descent.
//
// keys need not be sorted or distinct: the descent sorts an index
// permutation in idx, scratch the caller owns and reuses so that a descent
// allocates nothing. locs and idx must each have at least len(keys)
// entries and are overwritten. A key that is absent gets a zero Leaf but
// still a valid Ins anchor when one exists.
//
// from, when valid, starts the descent at a previously cached anchor
// instead of the root. The caller must guarantee every key's path passes
// through that anchor: len(key) >= from.Depth() and the key's leading
// from.Depth() bytes equal the anchor's path (the P-CTT hotset stores
// those bytes alongside the Ref for exactly this check). ok=false means
// the anchor went obsolete; the caller invalidates it and retries from the
// root (pass a zero Ref).
//
// anchorMaxDepth bounds how deep a returned Anchor may sit. Callers that
// re-derive anchors from key distributions (one per combine bucket) keep
// it at the bucket-label depth so a cached anchor never over-commits to a
// subtree narrower than the bucket.
func (t *Tree) LocateBatch(from Ref, anchorMaxDepth int, keys [][]byte, locs []BatchLoc, idx []int) (BatchStats, bool) {
	var st BatchStats
	if len(keys) == 0 {
		return st, true
	}
	for i := range locs[:len(keys)] {
		locs[i] = BatchLoc{}
	}

	n, depth := from.n, from.depth
	if n != nil {
		t.rlock(n)
		if n.obsolete.Load() || n.kind == kLeaf {
			n.mu.RUnlock()
			return st, false
		}
	} else {
		n = t.root.Load()
		if n == nil {
			return st, true // every key absent; no anchor exists
		}
		t.rlock(n)
		if n.kind == kLeaf {
			// Bare-leaf root: compare in place, no descent to share.
			st.SharedDescents, st.NodesVisited = 1, 1
			atomic.AddInt64(t.cNodeAccesses, 1)
			atomic.AddInt64(t.cKeyMatches, int64(len(keys)))
			for i, k := range keys {
				if bytes.Equal(n.key, k) {
					locs[i].Leaf = LeafRef{l: n}
				}
			}
			n.mu.RUnlock()
			atomic.AddInt64(t.cSharedDescents, 1)
			return st, true
		}
		depth = 0
	}

	// Sorted index permutation: prefix-sharing keys become contiguous, so
	// the descent partitions them into per-child runs with one linear scan
	// per node.
	idx = idx[:len(keys)]
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int { return bytes.Compare(keys[a], keys[b]) })

	st.SharedDescents = 1
	t.visitBatch(n, depth, keys, idx, locs, &st, len(keys), anchorMaxDepth)
	atomic.AddInt64(t.cSharedDescents, 1)
	return st, true
}

// visitBatch resolves the keys in idx (sorted, all sharing the path to n)
// against internal node n, entered at the given key depth. The caller
// holds n's read lock; visitBatch releases it after the last child visit
// begins (hand-over-hand, as in walkLocked).
func (t *Tree) visitBatch(n *node, depth int, keys [][]byte, idx []int,
	locs []BatchLoc, st *BatchStats, full, anchorMax int) {

	st.NodesVisited++
	atomic.AddInt64(t.cNodeAccesses, 1)
	atomic.AddInt64(t.cKeyMatches, int64(len(idx)))
	if len(idx) == full && depth <= anchorMax {
		// Every key of the batch passes through n: a candidate anchor for
		// the bucket's next batch. Deeper candidates overwrite shallower
		// ones; the depth bound keeps the anchor no narrower than the
		// bucket label.
		st.Anchor = Ref{n: n, depth: depth}
	}

	p := n.prefix
	d2 := depth + len(p)
	i := 0
	for i < len(idx) {
		k := keys[idx[i]]
		if len(k)-depth < len(p) || !bytes.Equal(k[depth:d2], p) {
			// Diverges inside n's compressed path: absent; an insert would
			// split n itself, so the anchor is n (PutAt reports fallback).
			locs[idx[i]].Ins = Ref{n: n, depth: depth}
			i++
			continue
		}
		if len(k) == d2 {
			// Terminates at n: the prefix-leaf position. The leaf pointer is
			// stable while we hold n's lock (deletes detach it under n's
			// write lock).
			if pl := n.prefixLeaf; pl != nil {
				locs[idx[i]].Leaf = LeafRef{l: pl}
			}
			locs[idx[i]].Ins = Ref{n: n, depth: depth}
			i++
			continue
		}
		// Run of keys sharing the next branch byte. Sorted order makes the
		// run contiguous: every key between two keys with the same d2-byte
		// prefix shares that prefix.
		b := k[d2]
		j := i + 1
		for j < len(idx) {
			kj := keys[idx[j]]
			if len(kj)-depth < len(p) || !bytes.Equal(kj[depth:d2], p) ||
				len(kj) == d2 || kj[d2] != b {
				break
			}
			j++
		}
		c := n.findChild(b)
		switch {
		case c == nil:
			for ; i < j; i++ {
				locs[idx[i]].Ins = Ref{n: n, depth: depth}
			}
		case c.kind == kLeaf:
			// Leaf keys are immutable and the edge cannot be deleted while
			// we hold n's lock, so the compare needs no child lock.
			st.NodesVisited++
			atomic.AddInt64(t.cNodeAccesses, 1)
			atomic.AddInt64(t.cKeyMatches, int64(j-i))
			for ; i < j; i++ {
				ix := idx[i]
				if bytes.Equal(c.key, keys[ix]) {
					locs[ix].Leaf = LeafRef{l: c}
				}
				locs[ix].Ins = Ref{n: n, depth: depth}
			}
		default:
			t.rlock(c)
			t.visitBatch(c, d2+1, keys, idx[i:j], locs, st, full, anchorMax)
			i = j
		}
	}
	n.mu.RUnlock()
}

// GetBatch reads every key with one shared descent, writing results into
// out (which must have at least len(keys) entries). Each read linearizes
// at its leaf access, exactly like an individual Get; a key deleted
// between the descent and its read falls back to a per-key Get.
func (t *Tree) GetBatch(keys [][]byte, out []BatchResult) BatchStats {
	locs := make([]BatchLoc, len(keys))
	st, _ := t.LocateBatch(Ref{}, 0, keys, locs, make([]int, len(keys)))
	for i, k := range keys {
		if l := locs[i].Leaf; l.Valid() {
			if v, ok := t.GetLeaf(l); ok {
				out[i] = BatchResult{Value: v, Found: true}
				continue
			}
			st.Fallbacks++
			atomic.AddInt64(t.cBatchFallbks, 1)
			v, ok := t.Get(k)
			out[i] = BatchResult{Value: v, Found: ok}
			continue
		}
		atomic.AddInt64(t.cOpsRead, 1)
		out[i] = BatchResult{}
	}
	return st
}

// ApplyBatch executes a mixed batch in entry order with one shared
// descent: located keys are read and overwritten through their leaf refs
// (lock-free), inserts re-enter the tree at the key's deepest located
// internal node, and deletes (plus any later operation on a key a
// structural fallback touched) run as ordinary per-key operations so
// in-batch per-key ordering is preserved. out must have at least len(ops)
// entries.
func (t *Tree) ApplyBatch(ops []BatchOp, out []BatchResult) BatchStats {
	keys := make([][]byte, len(ops))
	for i := range ops {
		keys[i] = ops[i].Key
	}
	locs := make([]BatchLoc, len(ops))
	st, _ := t.LocateBatch(Ref{}, 0, keys, locs, make([]int, len(ops)))

	// dirty marks keys whose tree location changed during this batch
	// (insert or delete): their cached locs are stale, so later operations
	// on them go per-key.
	var dirty map[string]struct{}
	markDirty := func(k []byte) {
		if dirty == nil {
			dirty = make(map[string]struct{})
		}
		dirty[string(k)] = struct{}{}
	}
	fallback := func() {
		st.Fallbacks++
		atomic.AddInt64(t.cBatchFallbks, 1)
	}

	for i := range ops {
		op := &ops[i]
		if _, stale := dirty[string(op.Key)]; stale {
			fallback()
			switch op.Kind {
			case BatchGet:
				v, ok := t.Get(op.Key)
				out[i] = BatchResult{Value: v, Found: ok}
			case BatchPut:
				out[i] = BatchResult{Value: op.Value, Found: t.Put(op.Key, op.Value)}
			case BatchDelete:
				out[i] = BatchResult{Found: t.Delete(op.Key)}
			}
			continue
		}
		switch op.Kind {
		case BatchGet:
			if l := locs[i].Leaf; l.Valid() {
				if v, ok := t.GetLeaf(l); ok {
					out[i] = BatchResult{Value: v, Found: true}
					continue
				}
				fallback()
				v, ok := t.Get(op.Key)
				out[i] = BatchResult{Value: v, Found: ok}
				continue
			}
			atomic.AddInt64(t.cOpsRead, 1)
			out[i] = BatchResult{}
		case BatchPut:
			if l := locs[i].Leaf; l.Valid() && t.PutLeaf(l, op.Value) {
				out[i] = BatchResult{Value: op.Value, Found: true}
				continue
			}
			// Insert (or the located leaf died): re-enter at the deepest
			// located internal node, then the root. Either way the key's
			// leaf is no longer the located one.
			fallback()
			replaced, done := false, false
			if r := locs[i].Ins; r.Valid() {
				replaced, done = t.PutAt(r, op.Key, op.Value)
			}
			if !done {
				replaced = t.Put(op.Key, op.Value)
			}
			out[i] = BatchResult{Value: op.Value, Found: replaced}
			markDirty(op.Key)
		case BatchDelete:
			out[i] = BatchResult{Found: t.Delete(op.Key)}
			markDirty(op.Key)
		}
	}
	return st
}
