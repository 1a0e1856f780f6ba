// Package metrics provides the instrumentation primitives shared by every
// engine in this repository: atomic event counters, execution-time
// breakdowns, and latency histograms with percentile queries.
//
// All engines report the same counter set so the experiment harness can
// compare them uniformly (Figs 2, 7, 8 of the DCART paper are pure counter
// readouts).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
)

// Counter names used across the repository. Engines are free to leave
// counters they never touch at zero.
const (
	// CtrKeyMatches counts partial-key match steps (one per node visited
	// during a top-down radix descent). Fig 8.
	CtrKeyMatches = "key_matches"
	// CtrNodeAccesses counts tree-node fetches (on- or off-chip).
	CtrNodeAccesses = "node_accesses"
	// CtrRedundantNodes counts node fetches whose node was already fetched
	// by an earlier operation of the same batch window. Fig 2(b).
	CtrRedundantNodes = "redundant_nodes"
	// CtrLockAcquire counts successful lock acquisitions.
	CtrLockAcquire = "lock_acquire"
	// CtrLockContention counts contended acquisitions (lock was held or a
	// version validation failed, forcing a wait or restart). Fig 7.
	CtrLockContention = "lock_contention"
	// CtrAtomicOps counts CAS / atomic RMW operations issued.
	CtrAtomicOps = "atomic_ops"
	// CtrRestarts counts optimistic-concurrency restarts.
	CtrRestarts = "restarts"
	// CtrOpsRead / CtrOpsWrite count executed operations by kind.
	CtrOpsRead  = "ops_read"
	CtrOpsWrite = "ops_write"
	// CtrCoalesced counts operations that were combined with an earlier
	// operation targeting the same node (CTT models only).
	CtrCoalesced = "coalesced_ops"
	// CtrShortcutHit / CtrShortcutMiss count shortcut-table lookups.
	CtrShortcutHit  = "shortcut_hit"
	CtrShortcutMiss = "shortcut_miss"
	// CtrCombineSteps counts operation-combining work (one per operation
	// bucketed by the PCU or its software equivalent).
	CtrCombineSteps = "combine_steps"
	// CtrShortcutMaintain counts Shortcut_Table maintenance actions
	// (entry creation, refresh, and invalidation).
	CtrShortcutMaintain = "shortcut_maintain"
	// CtrBatches counts trigger batches executed by the parallel CTT
	// workers (one per worker wakeup that processed a combine batch).
	CtrBatches = "trigger_batches"
	// CtrBucketSteals counts combine buckets popped from a peer worker's
	// ring by an idle worker (whole-bucket work stealing, P-CTT only).
	CtrBucketSteals = "bucket_steals"
	// CtrBucketHandoffs counts combine buckets re-homed to a parked peer
	// when they re-queued while still hot (P-CTT push handoff).
	CtrBucketHandoffs = "bucket_handoffs"
	// CtrWindowDeferrals counted combine windows a worker set aside to wait
	// out a deadline. P-CTT no longer defers (a window is the time the
	// worker was busy), so nothing increments it; the name stays because
	// recorded reports and the repository benchmark read it.
	CtrWindowDeferrals = "window_deferrals"
	// CtrOffchipBytes counts bytes moved over the off-chip interface.
	CtrOffchipBytes = "offchip_bytes"
	// CtrOnchipHits counts accesses served by on-chip buffers.
	CtrOnchipHits = "onchip_hits"
	// CtrSharedDescents counts batch-shared tree descents: one LocateBatch
	// traversal that resolved a whole sorted key batch with a single
	// lock-coupled walk (olc batch API; the paper's one-traversal-per-batch
	// Trigger property).
	CtrSharedDescents = "shared_descents"
	// CtrBatchFallbacks counts batch operations that could not be served
	// from their shared-descent location (structural change needed, stale
	// leaf, in-batch ordering hazard) and fell back to a per-key root
	// operation.
	CtrBatchFallbacks = "batch_fallbacks"
	// CtrHotsetHit / CtrHotsetMiss count hot-node residency lookups: a hit
	// means a batch descent started from a cached interior anchor instead of
	// the root (the software Tree_buffer analogue, P-CTT only).
	CtrHotsetHit  = "hotset_hit"
	CtrHotsetMiss = "hotset_miss"
	// CtrHotsetEvict counts value-aware hotset evictions (a higher-value
	// bucket anchor displaced the cheapest resident one).
	CtrHotsetEvict = "hotset_evict"
	// CtrHotsetInvalidate counts hotset entries dropped because their anchor
	// node was made obsolete by a structural change.
	CtrHotsetInvalidate = "hotset_invalidate"
	// CtrBypassOps is incremented by nothing: every point op is a task in a
	// combine bucket. It stays defined because the repository benchmark
	// reports pctt.bypass_share from it (benchmark/layers.go), and reads 0.
	CtrBypassOps = "bypass_ops"
	// CtrOpsScan counts ordered read operations (prefix scans, range scans,
	// and full walks) routed through an engine's scan path.
	CtrOpsScan = "ops_scan"
	// CtrScanRows counts key/value pairs delivered by scan operations.
	CtrScanRows = "scan_rows"
)

// Set is a collection of named atomic counters. The zero value is not
// usable; construct with NewSet. Sets are safe for concurrent use.
type Set struct {
	names []string          // registration order, for deterministic dumps
	ctrs  map[string]*int64 // fixed after construction
}

// standardNames is the counter vocabulary pre-registered in every Set.
var standardNames = []string{
	CtrKeyMatches, CtrNodeAccesses, CtrRedundantNodes,
	CtrLockAcquire, CtrLockContention, CtrAtomicOps, CtrRestarts,
	CtrOpsRead, CtrOpsWrite, CtrCoalesced,
	CtrShortcutHit, CtrShortcutMiss,
	CtrCombineSteps, CtrShortcutMaintain, CtrBatches,
	CtrBucketSteals, CtrBucketHandoffs, CtrWindowDeferrals,
	CtrOffchipBytes, CtrOnchipHits,
	CtrSharedDescents, CtrBatchFallbacks,
	CtrHotsetHit, CtrHotsetMiss, CtrHotsetEvict, CtrHotsetInvalidate,
	CtrBypassOps, CtrOpsScan, CtrScanRows,
}

// NewSet returns a Set with the standard counters plus any extra names.
func NewSet(extra ...string) *Set {
	s := &Set{ctrs: make(map[string]*int64)}
	for _, n := range standardNames {
		s.register(n)
	}
	for _, n := range extra {
		s.register(n)
	}
	return s
}

func (s *Set) register(name string) {
	if _, ok := s.ctrs[name]; ok {
		return
	}
	s.names = append(s.names, name)
	s.ctrs[name] = new(int64)
}

// Add increments counter name by delta. Unknown names panic: counter names
// are a closed vocabulary and a typo would silently corrupt an experiment.
func (s *Set) Add(name string, delta int64) {
	c, ok := s.ctrs[name]
	if !ok {
		panic(fmt.Sprintf("metrics: unknown counter %q", name))
	}
	atomic.AddInt64(c, delta)
}

// Inc is Add(name, 1).
func (s *Set) Inc(name string) { s.Add(name, 1) }

// Counter resolves name to its underlying atomic cell, letting hot paths
// skip the per-call map lookup: resolve once, then atomic.AddInt64
// directly. The cell stays registered — Get, Snapshot, and Reset see the
// same counter. Unknown names panic, as in Add.
func (s *Set) Counter(name string) *int64 {
	c, ok := s.ctrs[name]
	if !ok {
		panic(fmt.Sprintf("metrics: unknown counter %q", name))
	}
	return c
}

// Get returns the current value of counter name (0 for unknown names).
func (s *Set) Get(name string) int64 {
	c, ok := s.ctrs[name]
	if !ok {
		return 0
	}
	return atomic.LoadInt64(c)
}

// Reset zeroes every counter.
func (s *Set) Reset() {
	for _, c := range s.ctrs {
		atomic.StoreInt64(c, 0)
	}
}

// Snapshot returns a point-in-time copy of all counters.
func (s *Set) Snapshot() map[string]int64 {
	out := make(map[string]int64, len(s.ctrs))
	for n, c := range s.ctrs {
		out[n] = atomic.LoadInt64(c)
	}
	return out
}

// Names returns the registered counter names in registration order.
func (s *Set) Names() []string {
	out := make([]string, len(s.names))
	copy(out, s.names)
	return out
}

// String renders non-zero counters as "name=value" pairs, registration
// order, space separated. Zero counters are omitted to keep dumps short.
func (s *Set) String() string {
	var b strings.Builder
	for _, n := range s.names {
		v := s.Get(n)
		if v == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", n, v)
	}
	return b.String()
}

// Ratio returns Get(num)/Get(den), or 0 when the denominator is zero.
func (s *Set) Ratio(num, den string) float64 {
	d := s.Get(den)
	if d == 0 {
		return 0
	}
	return float64(s.Get(num)) / float64(d)
}

// Breakdown attributes modeled execution time to named phases (the paper's
// Fig 2(a) splits time into tree traversal, synchronization, and others).
type Breakdown struct {
	phases []string
	time   map[string]float64 // seconds
}

// NewBreakdown creates a breakdown over the given phases, all at zero.
func NewBreakdown(phases ...string) *Breakdown {
	b := &Breakdown{time: make(map[string]float64, len(phases))}
	for _, p := range phases {
		b.phases = append(b.phases, p)
		b.time[p] = 0
	}
	return b
}

// Add accrues seconds to a phase, registering it if new.
func (b *Breakdown) Add(phase string, seconds float64) {
	if _, ok := b.time[phase]; !ok {
		b.phases = append(b.phases, phase)
	}
	b.time[phase] += seconds
}

// Get returns the seconds accrued to a phase.
func (b *Breakdown) Get(phase string) float64 { return b.time[phase] }

// Total returns the sum over all phases.
func (b *Breakdown) Total() float64 {
	var t float64
	for _, v := range b.time {
		t += v
	}
	return t
}

// Share returns the fraction of total time spent in phase (0 if empty).
func (b *Breakdown) Share(phase string) float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return b.time[phase] / t
}

// Phases returns the phase names in registration order.
func (b *Breakdown) Phases() []string {
	out := make([]string, len(b.phases))
	copy(out, b.phases)
	return out
}

// String renders "phase=12.3ms (45.6%)" entries.
func (b *Breakdown) String() string {
	var sb strings.Builder
	for _, p := range b.phases {
		if sb.Len() > 0 {
			sb.WriteString("  ")
		}
		fmt.Fprintf(&sb, "%s=%.3gms (%.1f%%)", p, b.time[p]*1e3, b.Share(p)*100)
	}
	return sb.String()
}

// Histogram records latency samples and answers percentile queries. It uses
// logarithmic bucketing (~1% relative precision) so millions of samples cost
// a fixed footprint. The zero value is not usable; use NewHistogram.
//
// Concurrency contract: a Histogram is SINGLE-WRITER and has no internal
// synchronization. Exactly one goroutine may call Observe (and Merge, which
// also mutates the receiver); readers (Quantile, Mean, Cumulative, ...)
// must synchronize with that writer externally. The intended pattern —
// used by internal/pctt — is one private histogram per worker goroutine,
// folded together with Merge into a fresh histogram under a lock, or while
// the workers are quiescent. Merging a histogram that another goroutine is
// concurrently Observing into is a data race.
type Histogram struct {
	counts []uint64
	total  uint64
	min    float64
	max    float64
	sum    float64
}

// histBuckets spans 1ns..100s with 1% geometric spacing.
const (
	histBase    = 1e-9
	histGrowth  = 1.01
	histBuckets = 2400
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]uint64, histBuckets)}
}

var logGrowth = math.Log(histGrowth)

func bucketOf(v float64) int {
	if v <= histBase {
		return 0
	}
	idx := int(math.Ceil(math.Log(v/histBase) / logGrowth))
	if idx < 0 {
		idx = 0
	}
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

// boundary returns the upper bound of bucket i in seconds.
func boundary(i int) float64 {
	return histBase * math.Exp(float64(i)*logGrowth)
}

// Observe records one latency sample in seconds.
func (h *Histogram) Observe(seconds float64) {
	h.counts[bucketOf(seconds)]++
	if h.total == 0 || seconds < h.min {
		h.min = seconds
	}
	if seconds > h.max {
		h.max = seconds
	}
	h.total++
	h.sum += seconds
}

// ObserveN records n identical latency samples in seconds with one bucket
// add. It exists for bulk conversion of externally-bucketed distributions
// (the runtime/metrics histograms): adding counts instead of looping
// Observe keeps the conversion O(source buckets), not O(samples).
func (h *Histogram) ObserveN(seconds float64, n uint64) {
	if n == 0 {
		return
	}
	h.counts[bucketOf(seconds)] += n
	if h.total == 0 || seconds < h.min {
		h.min = seconds
	}
	if seconds > h.max {
		h.max = seconds
	}
	h.total += n
	h.sum += seconds * float64(n)
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the arithmetic mean of samples (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Min and Max return the extreme observed samples (0 when empty).
func (h *Histogram) Min() float64 { return h.min }
func (h *Histogram) Max() float64 { return h.max }

// Sum returns the sum of all observed samples in seconds.
func (h *Histogram) Sum() float64 { return h.sum }

// Cumulative re-buckets the histogram onto the caller's upper bounds
// (seconds, ascending): out[i] counts samples <= bounds[i], resolved at the
// internal ~1% bucket resolution. Exporters use this to serve a compact
// Prometheus histogram without exposing all internal buckets.
func (h *Histogram) Cumulative(bounds []float64) []uint64 {
	out := make([]uint64, len(bounds))
	if len(bounds) == 0 {
		return out
	}
	var seen uint64
	bi := 0
	for i, c := range h.counts {
		upper := boundary(i)
		for bi < len(bounds) && upper > bounds[bi] {
			out[bi] = seen
			bi++
		}
		if bi == len(bounds) {
			break
		}
		seen += c
	}
	for ; bi < len(bounds); bi++ {
		out[bi] = seen
	}
	return out
}

// Quantile returns the latency at quantile q in [0,1], e.g. 0.99 for P99.
// The answer is exact to the bucket resolution (~1%).
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(h.total))
	if rank >= h.total {
		rank = h.total - 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen > rank {
			return boundary(i)
		}
	}
	return h.max
}

// Clone returns an independent copy of h.
func (h *Histogram) Clone() *Histogram {
	out := &Histogram{
		counts: make([]uint64, len(h.counts)),
		total:  h.total,
		min:    h.min,
		max:    h.max,
		sum:    h.sum,
	}
	copy(out.counts, h.counts)
	return out
}

// Delta returns a new histogram holding the samples h gained since prev —
// the per-window latency distribution the obs windowed collector derives
// from two cumulative scrapes. prev must be an earlier copy of the same
// logical histogram (or nil/empty, in which case Delta returns a clone of
// h). If any bucket count decreased — the source histogram was reset or
// replaced between the two copies, so subtraction would wrap — Delta treats
// h itself as the window and returns its clone.
//
// The delta's min/max are resolved at bucket precision (~1%) from the
// outermost buckets that gained samples; its sum is the cumulative sums'
// difference, clamped at zero in case of float drift.
func (h *Histogram) Delta(prev *Histogram) *Histogram {
	if prev == nil || prev.total == 0 {
		return h.Clone()
	}
	if prev.total > h.total || len(prev.counts) != len(h.counts) {
		return h.Clone() // reset/replaced (or foreign shape): wrap-safe fallback
	}
	out := NewHistogram()
	lo, hi := -1, -1
	for i := range h.counts {
		if h.counts[i] < prev.counts[i] {
			return h.Clone() // per-bucket wrap: source was reset between copies
		}
		d := h.counts[i] - prev.counts[i]
		out.counts[i] = d
		if d != 0 {
			if lo < 0 {
				lo = i
			}
			hi = i
		}
	}
	out.total = h.total - prev.total
	if out.total > 0 {
		out.sum = h.sum - prev.sum
		if out.sum < 0 {
			out.sum = 0
		}
		out.min = boundary(lo)
		out.max = boundary(hi)
		// The true extremes are exact only when the window reaches past the
		// previous copy's envelope.
		if h.max > prev.max {
			out.max = h.max
		}
		if h.min < prev.min {
			out.min = h.min
		}
	}
	return out
}

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	for i, c := range other.counts {
		h.counts[i] += c
	}
	if other.total > 0 {
		if h.total == 0 || other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
	h.total += other.total
	h.sum += other.sum
}

// RedundancyTracker measures how many node fetches within a sliding window
// of operations hit nodes already fetched by an earlier operation in the
// window. The paper's Fig 2(b) reports this ratio over batches of
// concurrently in-flight operations. Not safe for concurrent use.
type RedundancyTracker struct {
	window    int
	seen      map[uint64]int // node addr -> ops-ago last touched
	opIndex   int
	fetches   int64
	redundant int64
}

// NewRedundancyTracker creates a tracker with the given operation window
// (how many consecutive operations count as "concurrent").
func NewRedundancyTracker(window int) *RedundancyTracker {
	if window < 1 {
		window = 1
	}
	return &RedundancyTracker{window: window, seen: make(map[uint64]int)}
}

// NextOp marks the start of a new operation.
func (r *RedundancyTracker) NextOp() { r.opIndex++ }

// Touch records a fetch of the node at addr and reports whether it was
// redundant (touched by another operation within the window).
func (r *RedundancyTracker) Touch(addr uint64) bool {
	r.fetches++
	last, ok := r.seen[addr]
	r.seen[addr] = r.opIndex
	if ok && r.opIndex-last <= r.window && r.opIndex != last {
		r.redundant++
		return true
	}
	return false
}

// Ratio returns redundant fetches / total fetches.
func (r *RedundancyTracker) Ratio() float64 {
	if r.fetches == 0 {
		return 0
	}
	return float64(r.redundant) / float64(r.fetches)
}

// Fetches returns total fetches observed.
func (r *RedundancyTracker) Fetches() int64 { return r.fetches }

// Redundant returns redundant fetches observed.
func (r *RedundancyTracker) Redundant() int64 { return r.redundant }

// TopShare answers "what fraction of accesses hit the hottest p of keys".
// Given per-key access counts it returns the access share of the hottest
// fraction p (0 < p <= 1) of keys. Used for the Fig 3 skew statistic
// ("96.65% of tree traversals access only 5% of the nodes").
func TopShare(counts []int64, p float64) float64 {
	if len(counts) == 0 || p <= 0 {
		return 0
	}
	sorted := make([]int64, len(counts))
	copy(sorted, counts)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	n := int(float64(len(sorted)) * p)
	if n < 1 {
		n = 1
	}
	if n > len(sorted) {
		n = len(sorted)
	}
	var top, total int64
	for i, c := range sorted {
		total += c
		if i < n {
			top += c
		}
	}
	if total == 0 {
		return 0
	}
	return float64(top) / float64(total)
}
