package store

import (
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pctt"
)

// Batched routes point operations through the parallel
// Combine-Traverse-Trigger engine (internal/pctt): concurrent callers on
// keys sharing a prefix bucket coalesce into one trigger batch, which is
// where the lock-amortization wins come from under concurrent load.
// Ordered reads route through the engine's scan path, so scans count into
// the engine's metrics (ops_scan, scan_rows) and appear in its lifecycle
// tracing — under the previous architecture kvserver's scans reached into
// the tree directly and were invisible to both.
type Batched struct {
	e *pctt.Engine
}

// NewBatched returns a batched store running a fresh engine with cfg.
// Call Close to stop the engine's workers.
func NewBatched(cfg pctt.Config) *Batched { return &Batched{e: pctt.New(cfg)} }

// WrapEngine wraps an existing engine (benchmarks that drive the engine's
// bulk Run path and the store surface over the same index).
func WrapEngine(e *pctt.Engine) *Batched { return &Batched{e: e} }

// Engine exposes the underlying parallel engine.
func (b *Batched) Engine() *pctt.Engine { return b.e }

// Metrics returns the engine's live counter set.
func (b *Batched) Metrics() *metrics.Set { return b.e.Metrics() }

func (b *Batched) Get(key []byte) (uint64, bool)     { return b.e.Get(key) }
func (b *Batched) Put(key []byte, value uint64) bool { return b.e.Put(key, value) }
func (b *Batched) Delete(key []byte) bool            { return b.e.Delete(key) }

// The async surface maps directly onto the engine's async calls:
// submissions from one goroutine enter their combine buckets in order, so
// several of one producer's requests can share a combine window — the
// whole point of pipelined submission.
func (b *Batched) GetAsync(key []byte) Pending { return b.e.GetAsync(key) }
func (b *Batched) PutAsync(key []byte, value uint64) Pending {
	return b.e.PutAsync(key, value)
}
func (b *Batched) DeleteAsync(key []byte) Pending { return b.e.DeleteAsync(key) }
func (b *Batched) Len() int                          { return b.e.Len() }
func (b *Batched) Walk(fn Visitor) bool              { return b.e.Walk(fn) }
func (b *Batched) Close() error                      { return b.e.Close() }

func (b *Batched) Scan(prefix []byte, limit int, fn Visitor) bool {
	return boundedScan(limit, fn, func(v Visitor) {
		b.e.ScanPrefix(prefix, v)
	})
}

func (b *Batched) Range(lo, hi []byte, limit int, fn Visitor) bool {
	return boundedScan(limit, fn, func(v Visitor) {
		b.e.AscendRange(lo, hi, v)
	})
}

// RegisterObs registers the engine's live series under the engine's
// default group.
func (b *Batched) RegisterObs(r *obs.Registry) { b.e.RegisterObs(r) }

// RegisterObsTagged implements ObsTagged.
func (b *Batched) RegisterObsTagged(r *obs.Registry, group, labels string) {
	b.e.RegisterObsTagged(r, group, labels)
}
