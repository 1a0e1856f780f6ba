// Package store is the storage contract between the protocol layer
// (internal/kvserver) and the index engines. It extracts the full surface
// a key-value service needs — point operations, ordered prefix/range
// scans, cardinality, whole-store walks, snapshots, and observability
// registration — behind one interface with three implementations:
//
//   - Direct: the lock-coupling concurrent ART (internal/olc), one
//     descent per operation on the calling goroutine — the paper's
//     CPU-baseline discipline, and the store for callers who want no
//     pipeline.
//   - Batched: the parallel Combine-Traverse-Trigger engine
//     (internal/pctt); point operations coalesce in combine windows and
//     scans route through the engine's scan path so they appear in its
//     metrics and tracing instead of sneaking around the pipeline.
//   - Sharded: N independent sub-stores partitioned by the top key
//     bytes, with scatter-gather scans merged in order — the software
//     analogue of the paper's multi-SOU scale-out (16 SOUs behind one
//     prefix-based combiner, Fig 6): a thin routing layer that scatters
//     work across independent index units and merges ordered results.
//
// Consistency contract: point operations are linearizable per key within
// a sub-store, and a caller's acked writes are visible to its later reads
// and scans (every Put/Delete returns only after it applied). Scans are
// not snapshots — concurrent writes during a scan may or may not be seen,
// and a sharded scan offers no cross-shard snapshot isolation: each shard
// is observed at a slightly different instant. Ordering within one scan
// is always strictly ascending, across shard boundaries too.
package store

import "repro/internal/obs"

// Visitor receives one key/value pair of an ordered read; returning false
// stops the iteration.
type Visitor func(key []byte, value uint64) bool

// Pending is the completion token of an asynchronous point operation.
// Wait blocks until the operation has applied and returns its result:
// (value, present) for GetAsync, (_, replaced) for PutAsync, and
// (_, present) for DeleteAsync. Wait must be called exactly once — tokens
// are pooled by the implementations and become invalid once Wait returns.
type Pending interface {
	Wait() (value uint64, found bool)
}

// Store is the storage contract. All methods are safe for concurrent use.
type Store interface {
	// Get returns the value stored under key.
	Get(key []byte) (uint64, bool)
	// Put stores value under key; it reports whether an existing value was
	// replaced.
	Put(key []byte, value uint64) bool
	// Delete removes key; it reports whether the key was present.
	Delete(key []byte) bool
	// GetAsync, PutAsync, and DeleteAsync submit the corresponding point
	// operation without waiting for it to apply, returning a completion
	// token. This is how one producer keeps several operations in flight
	// (a pipelined server connection feeding the engine's combine window).
	// Per key, per submitting goroutine, operations apply in submission
	// order — so a producer that submits PutAsync(k) then GetAsync(k)
	// reads its own write once both tokens resolve, the same
	// read-your-writes contract the blocking calls give. Submission may
	// block for backpressure when the store's pipeline is full; the key
	// must not be mutated until the token's Wait returns, and is the
	// caller's to reuse from then on. Direct has no pipeline: its async
	// calls execute inline and return an already-resolved token.
	GetAsync(key []byte) Pending
	PutAsync(key []byte, value uint64) Pending
	DeleteAsync(key []byte) Pending
	// Scan visits, in ascending key order, keys starting with prefix. With
	// limit > 0 at most limit pairs reach fn; Scan then reports whether
	// the limit truncated the result (limit pairs delivered, fn never
	// stopped the scan, and at least one more match existed). With
	// limit <= 0 the scan is unbounded and truncated is always false.
	Scan(prefix []byte, limit int, fn Visitor) (truncated bool)
	// Range visits keys k with lo <= k <= hi in ascending order (nil
	// bounds are open), under the same limit/truncation contract as Scan.
	Range(lo, hi []byte, limit int, fn Visitor) (truncated bool)
	// Len returns the number of stored keys.
	Len() int
	// Walk visits every pair in ascending key order; it reports whether
	// the walk ran to exhaustion (fn never returned false).
	Walk(fn Visitor) bool
	// RegisterObs registers the store's live observability series
	// (counters, gauges, histograms) with the registry, replacing any
	// previous registration of the same store kind.
	RegisterObs(r *obs.Registry)
	// Close releases engine resources (worker pools); the store stays
	// readable afterwards but loses its pipeline guarantees.
	Close() error
}

// ObsTagged is implemented by stores that can register their series under
// a caller-chosen registry group with extra labels; Sharded uses it to
// give each sub-store its own group tag and a shard label.
type ObsTagged interface {
	RegisterObsTagged(r *obs.Registry, group, labels string)
}

// boundedScan adapts an unbounded callback scan to Store's limit +
// truncation contract: it forwards at most limit pairs to fn and probes
// for one more to distinguish truncation from exhaustion.
func boundedScan(limit int, fn Visitor, scan func(Visitor)) (truncated bool) {
	if limit <= 0 {
		scan(fn)
		return false
	}
	n := 0
	scan(func(k []byte, v uint64) bool {
		if n == limit {
			truncated = true
			return false
		}
		n++
		return fn(k, v)
	})
	return truncated
}
