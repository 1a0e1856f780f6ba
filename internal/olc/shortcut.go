package olc

import (
	"bytes"
	"sync/atomic"
)

// Ref is an opaque Shortcut_Table reference into the tree: an internal
// node on a key's descent path plus the key depth consumed on entry to
// that node. It is the software analogue of the paper's
// <key, target-node, parent-node> shortcut entry (§III-C).
//
// A Ref is self-validating: structural changes in this tree never move a
// live internal node (grow and prefix splits replace the node and mark the
// old copy obsolete; deletes remove only leaves), so a Ref is usable until
// its node's obsolete flag is set. GetAt and PutAt re-check that flag
// under the node's lock and report ok=false when the reference went stale,
// at which point the caller falls back to a root descent and should
// refresh the shortcut with Locate.
type Ref struct {
	n     *node
	depth int
}

// Valid reports whether the Ref points at a node at all. It does not
// check staleness; that happens inside GetAt/PutAt.
func (r Ref) Valid() bool { return r.n != nil }

// Depth returns the key depth consumed on entry to the referenced node.
// Callers that descend from a Ref (LocateBatch) must only use keys that
// are at least this long and share the referenced path's leading bytes.
func (r Ref) Depth() int { return r.depth }

// Locate returns a shortcut reference for key: the deepest internal node
// entered while descending for key (typically the target leaf's parent).
// ok=false when the tree is empty or rooted at a bare leaf — no useful
// shortcut exists then.
func (t *Tree) Locate(key []byte) (Ref, bool) {
	n := t.root.Load()
	if n == nil || n.kind == kLeaf {
		return Ref{}, false
	}
	t.rlock(n)
	best := Ref{n: n, depth: 0}
	depth := 0
	for {
		p := n.prefix
		if len(key)-depth < len(p) || !bytes.Equal(key[depth:depth+len(p)], p) {
			// Divergence: key would be inserted under n; n is the shortcut.
			n.mu.RUnlock()
			return best, true
		}
		depth += len(p)
		if depth >= len(key) {
			// Key terminates at n (prefix-leaf position).
			n.mu.RUnlock()
			return best, true
		}
		c := n.findChild(key[depth])
		if c == nil || c.kind == kLeaf {
			n.mu.RUnlock()
			return best, true
		}
		t.rlock(c)
		n.mu.RUnlock()
		n = c
		depth++
		best = Ref{n: n, depth: depth}
	}
}

// GetAt performs Get starting from ref instead of the root, skipping the
// radix descent above it (the shortcut jump of Fig 8). ok=false means the
// reference is stale and the caller must fall back to Get; value and found
// are then meaningless.
func (t *Tree) GetAt(ref Ref, key []byte) (value uint64, found, ok bool) {
	n := ref.n
	if n == nil {
		return 0, false, false
	}
	t.rlock(n)
	if n.obsolete.Load() {
		n.mu.RUnlock()
		return 0, false, false
	}
	atomic.AddInt64(t.cOpsRead, 1)
	value, found = t.getDescend(n, ref.depth, key)
	return value, found, true
}

// PutAt performs one optimistic put attempt starting from ref. ok=false
// means the attempt could not complete from the reference (stale node, a
// structural change required at the reference node itself, or a failed
// optimistic validation); the caller must fall back to Put. On ok=true,
// replaced reports whether an existing value was overwritten.
func (t *Tree) PutAt(ref Ref, key []byte, value uint64) (replaced, ok bool) {
	n := ref.n
	if n == nil {
		return false, false
	}
	t.rlock(n)
	if n.obsolete.Load() {
		n.mu.RUnlock()
		return false, false
	}
	out, replaced := t.putDescend(n, nil, ref.depth, 0, key, value, false)
	if out != putDone {
		return false, false
	}
	atomic.AddInt64(t.cOpsWrite, 1)
	if !replaced {
		t.size.Add(1)
	}
	return replaced, true
}

// LeafRef is a stable reference to a key's leaf node — the strongest form
// of shortcut the tree supports. It relies on two structural invariants:
// leaves are never moved-and-replaced (splitLeaf, splitPrefix, and
// growAndInsert re-parent the *same* leaf node), and a leaf's obsolete
// flag is set exactly when its key is deleted. A LeafRef therefore stays
// usable from the key's insertion until its deletion, across arbitrary
// structural churn elsewhere in the tree.
type LeafRef struct {
	l *node
}

// Valid reports whether the LeafRef points at a leaf at all. It does not
// check liveness; that happens inside GetLeaf/PutLeaf.
func (r LeafRef) Valid() bool { return r.l != nil }

// Key returns the key the leaf was inserted under: the tree's own copy,
// immutable for the leaf's whole life, so it stays comparable after the
// caller that located the leaf has reused its key buffer. The result must
// not be modified. r must be Valid.
func (r LeafRef) Key() []byte { return r.l.key }

// LocateLeaf returns a LeafRef for key if key is currently present.
func (t *Tree) LocateLeaf(key []byte) (LeafRef, bool) {
	n := t.root.Load()
	if n == nil {
		return LeafRef{}, false
	}
	t.rlock(n)
	depth := 0
	for {
		if n.kind == kLeaf {
			ok := bytes.Equal(n.key, key)
			n.mu.RUnlock()
			if ok {
				return LeafRef{l: n}, true
			}
			return LeafRef{}, false
		}
		p := n.prefix
		if len(key)-depth < len(p) || !bytes.Equal(key[depth:depth+len(p)], p) {
			n.mu.RUnlock()
			return LeafRef{}, false
		}
		depth += len(p)
		if depth == len(key) {
			pl := n.prefixLeaf
			n.mu.RUnlock()
			if pl != nil {
				return LeafRef{l: pl}, true
			}
			return LeafRef{}, false
		}
		c := n.findChild(key[depth])
		if c == nil {
			n.mu.RUnlock()
			return LeafRef{}, false
		}
		t.rlock(c)
		n.mu.RUnlock()
		n = c
		depth++
	}
}

// GetLeaf reads the referenced leaf's current value: two atomic loads,
// zero locks, zero key-match steps. ok=false means the leaf was deleted
// and the reference is permanently dead (the caller re-locates or falls
// back to Get). A read racing the key's delete may return the pre-delete
// value; it linearizes before the delete, exactly like a reader that
// entered the leaf just ahead of it. Callers must only use a LeafRef with
// the key it was located for — the tree cannot re-verify cheaply, that
// being the point.
func (t *Tree) GetLeaf(r LeafRef) (value uint64, ok bool) {
	l := r.l
	if l == nil || l.obsolete.Load() {
		return 0, false
	}
	value = l.value.Load()
	atomic.AddInt64(t.cOpsRead, 1)
	atomic.AddInt64(t.cNodeAccesses, 1)
	return value, true
}

// PutLeaf overwrites the referenced leaf's value (always an update, never
// an insert — a live leaf means the key is present). ok=false means the
// leaf was deleted; the caller falls back to Put. The store is a plain
// atomic on the value word with no node lock — the same discipline as
// CASValueUpdates' fast path: a store racing the key's delete linearizes
// before it (the value lands on the now-unreachable leaf and is never
// observed).
func (t *Tree) PutLeaf(r LeafRef, value uint64) (ok bool) {
	l := r.l
	if l == nil || l.obsolete.Load() {
		return false
	}
	l.value.Store(value)
	atomic.AddInt64(t.cOpsWrite, 1)
	atomic.AddInt64(t.cNodeAccesses, 1)
	return true
}
