package store

import (
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/olc"
)

// ObsGroup is the default registry group a store registers under.
const ObsGroup = "store"

// Direct executes every operation with one descent of the lock-coupling
// concurrent ART — the baseline discipline the paper's CPU systems use,
// and the store for callers who want no pipeline: it starts no goroutine,
// and its async calls execute on the submitting goroutine.
type Direct struct {
	tree *olc.Tree
	ms   *metrics.Set
}

// NewDirect returns an empty direct store with a private counter set.
func NewDirect() *Direct {
	ms := metrics.NewSet()
	return &Direct{tree: olc.New(ms), ms: ms}
}

// Tree exposes the underlying concurrent index (benchmarks, tests).
func (d *Direct) Tree() *olc.Tree { return d.tree }

// Metrics returns the live counter set shared with the tree.
func (d *Direct) Metrics() *metrics.Set { return d.ms }

func (d *Direct) Get(key []byte) (uint64, bool)     { return d.tree.Get(key) }
func (d *Direct) Put(key []byte, value uint64) bool { return d.tree.Put(key, value) }
func (d *Direct) Delete(key []byte) bool            { return d.tree.Delete(key) }
func (d *Direct) Len() int                          { return d.tree.Len() }
func (d *Direct) Walk(fn Visitor) bool              { return d.tree.Walk(fn) }

// Close has nothing to stop; the store stays fully usable.
func (d *Direct) Close() error { return nil }

// The async calls execute inline and return a token that is already
// resolved, so per-key submission order holds trivially.
func (d *Direct) GetAsync(key []byte) Pending { return resolve(d.tree.Get(key)) }
func (d *Direct) PutAsync(key []byte, value uint64) Pending {
	return resolve(0, d.tree.Put(key, value))
}
func (d *Direct) DeleteAsync(key []byte) Pending { return resolve(0, d.tree.Delete(key)) }

// resolved is an already-completed Pending, pooled so that an inline
// operation allocates nothing for its token.
type resolved struct {
	value uint64
	found bool
}

var resolvedPool = sync.Pool{New: func() any { return new(resolved) }}

func resolve(value uint64, found bool) Pending {
	r := resolvedPool.Get().(*resolved)
	r.value, r.found = value, found
	return r
}

func (r *resolved) Wait() (uint64, bool) {
	v, ok := r.value, r.found
	resolvedPool.Put(r)
	return v, ok
}

func (d *Direct) Scan(prefix []byte, limit int, fn Visitor) bool {
	d.ms.Inc(metrics.CtrOpsScan)
	return boundedScan(limit, countRows(d.ms, fn), func(v Visitor) {
		d.tree.ScanPrefix(prefix, v)
	})
}

func (d *Direct) Range(lo, hi []byte, limit int, fn Visitor) bool {
	d.ms.Inc(metrics.CtrOpsScan)
	return boundedScan(limit, countRows(d.ms, fn), func(v Visitor) {
		d.tree.AscendRange(lo, hi, v)
	})
}

// RegisterObs registers the tree's counter set under ObsGroup.
func (d *Direct) RegisterObs(r *obs.Registry) { d.RegisterObsTagged(r, ObsGroup, "") }

// RegisterObsTagged implements ObsTagged.
func (d *Direct) RegisterObsTagged(r *obs.Registry, group, labels string) {
	r.UnregisterGroup(group)
	r.RegisterCountersLabeled(group, "dcart", labels,
		"tree event counter (see internal/metrics for the vocabulary)", d.ms)
	r.RegisterGauge(group, "dcart_store_keys", labels,
		"keys stored in this store", func() float64 { return float64(d.tree.Len()) })
}

// countRows wraps fn so every delivered pair also counts into scan_rows.
func countRows(ms *metrics.Set, fn Visitor) Visitor {
	c := ms.Counter(metrics.CtrScanRows)
	return func(k []byte, v uint64) bool {
		atomic.AddInt64(c, 1)
		return fn(k, v)
	}
}
