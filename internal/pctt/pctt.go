// Package pctt implements P-CTT: a truly parallel Combine-Traverse-Trigger
// engine running on the olc concurrent ART.
//
// Where internal/ctt models the paper's CTT pipeline serially and counts
// events, pctt executes it with real goroutines for real wall-clock
// throughput:
//
//   - Combine — incoming operations are sharded by the leading prefixBits
//     bits of the key (after the loaded key set's common prefix, as in
//     internal/ctt) into combine buckets. A bucket accumulates a FIFO
//     backlog and is scheduled onto a worker through a bounded lock-free
//     MPMC ring of bucket IDs. Batch formation has no timer: a bucket's
//     combine window is exactly the time its worker was busy — batch N+1
//     accumulates while batch N executes (the PCU/SOU overlap of the
//     paper's Fig 6) — so an idle engine executes at once and a loaded
//     one coalesces whatever arrived meanwhile.
//   - Traverse — a worker swaps out a bucket's whole backlog as one
//     trigger batch, coalesces it into per-key groups, and locates each
//     group's target node once: via its private, lock-free Shortcut_Table
//     (key -> olc.Ref) when possible, via one root descent otherwise.
//   - Trigger — a group's operations execute together against the located
//     node: reads after the first are served from the group's running
//     value, consecutive writes combine into one olc.Put (one version-lock
//     acquisition for the whole group).
//
// Skewed (Zipf-hot) buckets are re-balanced by whole-bucket work stealing
// and handoff (see steal.go); because a bucket only ever executes on one
// worker at a time, per-key FIFO and the single-writer-per-key invariant
// hold across steals, which is what keeps write-combining and the
// per-worker shortcut tables safe without cross-worker synchronization.
//
// There is one way into the pipeline: every point operation is a task in a
// combine bucket. GetAsync/PutAsync/DeleteAsync submit one task and return
// its completion token (submit.go); Get/Put/Delete are those plus Wait; Run
// (the engine.Engine face the harness and the integration cross-checks
// drive) pre-shards a whole stream into bucket chunks and submits those.
// Callers who want no pipeline use the tree directly (store.Direct).
//
// Ordering contract: per key, per producer, FIFO — a producer that issues
// W(k,v) then R(k) observes v (read-your-writes). Cross-key ordering is
// not preserved, exactly like the hardware CTT model.
//
// Latency accounting: every sampled operation is stamped at true submit
// time (task creation, before any producer-side buffering), and the
// pipeline records queue wait (submit -> its trigger batch begins) and
// execute time (batch begin -> operation completion) in separate
// histograms, surfaced by the native experiment (internal/bench/native.go)
// and comparable to the simulated open-loop breakdown in
// internal/sim/queue.go.
package pctt

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/olc"
	"repro/internal/workload"
)

// Config parameterizes the parallel engine.
type Config struct {
	// Workers is the number of worker goroutines (SOU analogues). Default
	// runtime.GOMAXPROCS(0); the paper's hardware has 16 SOUs.
	Workers int
	// BatchSize caps the operations a worker executes per trigger batch
	// (default 4096). A bucket backlog larger than this is split in FIFO
	// order across consecutive batches.
	BatchSize int
	// ChunkSize is the producer-side mini-chunk Run uses when pre-sharding
	// a stream (default 256); it amortizes per-bucket locking. Chunks are
	// force-flushed every dispatchStripe operations so a cold bucket's
	// tasks never linger in producer buffers.
	ChunkSize int
	// QueueDepth bounds each bucket's pending backlog in operations
	// (default 4096). A full bucket applies backpressure to producers so no
	// single hot bucket can absorb the whole MaxInflight allowance.
	QueueDepth int
	// MaxInflight bounds the TOTAL submitted-but-incomplete operations
	// across all buckets (default 4*BatchSize). This is the knob that
	// bounds queue wait — tail latency is roughly MaxInflight divided by
	// pipeline throughput — while QueueDepth only shapes how the allowance
	// spreads across buckets. Producers spin-yield when the bound is hit.
	MaxInflight int
	// HotsetCap bounds each worker's hot-node residency set: cached
	// interior-node anchors (one per combine bucket, ranked by bucket
	// population under value-aware replacement) that batch descents start
	// from instead of the root — the software Tree_buffer analogue. Default
	// 64 anchors per worker; negative disables the hotset entirely.
	HotsetCap int
	// NoSteal disables whole-bucket work stealing and handoff, pinning
	// every bucket to its home worker (bucket mod Workers).
	NoSteal bool
	// CollectReads makes Run record every read's result, as in
	// engine.Config.
	CollectReads bool
	// RecordLatency samples per-operation pipeline latency (true submit to
	// completion) plus the queue-wait/execute split into histograms; see
	// LatencyHistogram, QueueWaitHistogram, ExecHistogram. Sampling is
	// 1-in-16 (see sample).
	RecordLatency bool
	// Tracer, when non-nil, samples operation lifecycles (combine/queue
	// wait -> steal or handoff -> trigger-execute) into the obs span ring.
	// The tracer makes its own 1/N sampling decision; an unsampled
	// operation pays one atomic increment at submit and nothing else.
	Tracer *obs.Tracer
	// Journal, when non-nil, is the slow-op journal: EVERY operation is
	// stamped at submit (one clock read) and its completed span — with the
	// engine's queue/combine/traverse/trigger stage breakdown — is offered
	// to the journal, which keeps only ops at or above its latency
	// threshold. Unlike Tracer there is no sampling: a slow op must not
	// escape because it wasn't the 1-in-N one.
	Journal *obs.Journal
	// BatchHook, when non-nil, runs on the worker goroutine immediately
	// before each trigger batch executes. It is a test/fault-injection
	// point: a hook that blocks stalls that worker exactly as a wedged batch
	// would — heartbeat frozen, in-flight ops held — which is how the health
	// engine's stall detection is exercised end to end. Production configs
	// leave it nil.
	BatchHook func(worker int)
}

// Defaults fills unset fields.
func (c Config) Defaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 4096
	}
	if c.ChunkSize <= 0 {
		c.ChunkSize = 256
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4096
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 4 * c.BatchSize
	}
	if c.HotsetCap == 0 {
		c.HotsetCap = 64
	} else if c.HotsetCap < 0 {
		c.HotsetCap = 0 // disabled; newHotset returns nil
	}
	return c
}

// The combining geometry is fixed, as in the paper's PCU.
const (
	// prefixBits is the number of leading key bits (after the key set's
	// common prefix) that label a combine bucket (at most 16, the window
	// shardOf reads).
	prefixBits = 8
	nBuckets   = 1 << prefixBits
	// shortcutCap bounds each worker's Shortcut_Table population;
	// exceeding it clears the table (epoch eviction).
	shortcutCap = 1 << 16
)

// dispatchStripe is how often (in stream operations) Run force-flushes all
// open producer mini-chunks, bounding producer-side buffering of cold
// buckets to well under a millisecond at any realistic throughput.
const dispatchStripe = 2048

// taskResult is the outcome a Pending token delivers.
type taskResult struct {
	value uint64
	found bool // read: key present; put: value replaced; delete: key removed
}

// task is one operation in flight through the pipeline.
type task struct {
	kind  workload.Kind
	key   []byte
	value uint64
	// hash is the key's hashKey value, computed once at submit and carried
	// end-to-end: grouping and Shortcut_Table lookups reuse it instead of
	// re-hashing on the worker's critical path.
	hash uint64
	// res, when non-nil, is the Run-mode destination slot for a read.
	res *engine.ReadResult
	idx int // stream index for res
	// reply, when non-nil, receives the outcome for the task's Pending
	// token (buffered 1).
	reply chan taskResult
	// done, when non-nil, is decremented once the task has executed
	// (Run-mode completion accounting).
	done *sync.WaitGroup
	// enq is a unix-nano true-submit stamp when latency recording or
	// tracing sampled this task, or the slow-op journal is armed (taken at
	// task creation, before any producer-side buffering).
	enq int64
	// lat marks the task as chosen by the 1-in-16 latency sampler; its
	// queue/exec split lands in the worker histograms at completion.
	lat bool
	// traced marks the task as chosen by the obs tracer's sampler; its
	// lifecycle span is recorded at completion.
	traced bool
}

// chunk is a run of tasks of one combine bucket: the unit producers hand
// to a bucket's backlog and workers gather into a trigger batch. Chunks are
// pooled by pointer, so recycling one allocates nothing.
type chunk struct {
	t []task // capacity Config.ChunkSize, never grown
}

// Engine is the parallel CTT engine. Construct with New; call Close to
// stop the workers when done.
type Engine struct {
	name string
	cfg  Config

	tree *olc.Tree
	ms   *metrics.Set

	// prefixSkip is the number of leading bytes shared by every loaded
	// key; the combining prefix starts after them. Set by Load.
	prefixSkip int

	buckets []bucket
	rings   []*ring
	workers []*worker

	// chunkPool recycles task chunks (*chunk) between workers (which drain
	// them) and submitters (which fill them). The population is bursty —
	// every dispatch stripe can hand fresh chunks to hundreds of cold
	// buckets — so an unbounded sync.Pool, not a fixed-capacity freelist: a
	// capped list that can't absorb the whole in-flight chunk population
	// turns most gets into fresh multi-KB zeroed allocations, enough
	// pressure to keep the collector running continuously. Idle buckets
	// hold no chunk, so the collector reclaims the lot when traffic stops.
	chunkPool sync.Pool

	// idleMask advertises parked workers (bit per worker) for the handoff
	// and wake-a-thief paths.
	idleMask atomic.Uint64
	// inflight counts submitted-but-not-completed operations; the drain
	// phase of Close spins until it reaches zero.
	inflight atomic.Int64
	// latN strides the 1-in-16 latency sampling.
	latN atomic.Uint64

	started atomic.Bool
	mu      sync.RWMutex // started/closed vs. submitters
	closed  bool
	closing atomic.Bool
	wg      sync.WaitGroup

	runMu sync.Mutex // serializes Run calls
}

// New returns a parallel CTT engine. Workers start lazily on first use.
func New(cfg Config) *Engine {
	cfg = cfg.Defaults()
	ms := metrics.NewSet()
	e := &Engine{
		name: "P-CTT",
		cfg:  cfg,
		tree: olc.New(ms),
		ms:   ms,
	}
	e.chunkPool.New = func() any { return &chunk{t: make([]task, 0, e.cfg.ChunkSize)} }
	return e
}

// getChunk returns an empty task chunk, recycled when possible.
func (e *Engine) getChunk() *chunk { return e.chunkPool.Get().(*chunk) }

// putChunk clears a drained chunk's tasks — so the pool holds no key,
// reply or done references — and recycles it.
func (e *Engine) putChunk(c *chunk) {
	clear(c.t)
	c.t = c.t[:0]
	e.chunkPool.Put(c)
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return e.name }

// Tree exposes the underlying concurrent index (used by kvserver for
// scans/snapshots and by the integration cross-checks). Direct writes to
// the tree while the pipeline is active break the single-writer-per-key
// invariant; restrict direct access to reads or quiescent phases.
func (e *Engine) Tree() *olc.Tree { return e.tree }

// Metrics returns the live counter set (shared with the tree).
func (e *Engine) Metrics() *metrics.Set { return e.ms }

// Workers returns the configured worker count.
func (e *Engine) Workers() int { return e.cfg.Workers }

// start launches the worker pool once.
func (e *Engine) start() {
	if e.started.Load() {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started.Load() || e.closed {
		return
	}
	e.buckets = make([]bucket, nBuckets)
	for i := range e.buckets {
		b := &e.buckets[i]
		b.cond.L = &b.mu
		b.owner = int32(i % e.cfg.Workers)
	}
	e.rings = make([]*ring, e.cfg.Workers)
	e.workers = make([]*worker, e.cfg.Workers)
	for i := range e.rings {
		e.rings[i] = newRing(nBuckets)
		e.workers[i] = newWorker(e, i)
	}
	e.wg.Add(e.cfg.Workers)
	for _, w := range e.workers {
		go w.loop()
	}
	e.started.Store(true)
}

// Close stops the worker pool after draining in-flight operations.
// Subsequent operations execute on the caller's goroutine (direct).
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	started := e.started.Load()
	e.mu.Unlock()
	if started {
		e.closing.Store(true)
		for _, w := range e.workers {
			w.forceWake()
		}
	}
	e.wg.Wait()
	return nil
}

// shardOf maps a key to its combine bucket: the prefixBits-bit key prefix
// taken after the loaded key set's common leading bytes (same labeling as
// internal/ctt's bucketOf).
func (e *Engine) shardOf(key []byte) int {
	i := e.prefixSkip
	var b0, b1 byte
	if i < len(key) {
		b0 = key[i]
	}
	if i+1 < len(key) {
		b1 = key[i+1]
	}
	v := uint32(b0)<<8 | uint32(b1)
	return int(v >> (16 - prefixBits))
}

// Load implements engine.Engine: bulk-insert the initial key set (not
// measured, not pipelined) and derive the combining-prefix position.
func (e *Engine) Load(keys [][]byte, values []uint64) {
	e.prefixSkip = commonPrefixLenAll(keys)
	for i, k := range keys {
		v := uint64(i)
		if values != nil {
			v = values[i]
		}
		e.tree.Put(k, v)
	}
	e.ms.Reset() // loading is not part of the measurement
}

// Reset implements engine.Engine: clear counters and latency histograms;
// the tree and the per-worker shortcut tables persist (index state, not
// measurement). Call only while the pipeline is quiescent.
func (e *Engine) Reset() {
	e.ms.Reset()
	e.mu.RLock()
	for _, w := range e.workers {
		w.resetHistograms()
	}
	e.mu.RUnlock()
}

// Run implements engine.Engine: execute the stream through the parallel
// pipeline and block until every operation has applied. Guarantees per-key
// stream order; cross-key order is unspecified (last-write-wins per key
// matches a sequential replay).
func (e *Engine) Run(ops []workload.Op) *engine.Result {
	e.start()
	e.runMu.Lock()
	defer e.runMu.Unlock()

	res := &engine.Result{Name: e.name, Ops: len(ops), Metrics: e.ms}
	var slots []engine.ReadResult
	if e.cfg.CollectReads {
		slots = make([]engine.ReadResult, len(ops))
		for i := range slots {
			slots[i].Index = -1
		}
	}

	t0 := time.Now()
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		for i := range ops {
			op := &ops[i]
			r := e.direct(task{kind: op.Kind, key: op.Key, value: op.Value})
			if slots != nil && op.Kind == workload.Read {
				slots[i] = engine.ReadResult{Index: i, Value: r.value, OK: r.found}
			}
		}
	} else {
		e.dispatch(ops, slots)
		e.mu.RUnlock()
	}
	res.WallNanos = time.Since(t0).Nanoseconds()

	if slots != nil {
		for i := range slots {
			if slots[i].Index >= 0 {
				res.Reads = append(res.Reads, slots[i])
			}
		}
	}
	return res
}

// dispatch pre-shards the stream into per-bucket mini-chunks (preserving
// per-key order), submits them, and waits for completion. Chunks flush
// when full and on every dispatchStripe operations, so producer-side
// buffering is bounded for cold buckets too. Caller holds e.mu.RLock.
func (e *Engine) dispatch(ops []workload.Op, slots []engine.ReadResult) {
	var wg sync.WaitGroup
	open := make([]*chunk, nBuckets)
	dirty := make([]int, 0, 64) // buckets with a non-empty open chunk
	flush := func(s int) {
		c := open[s]
		if c == nil {
			return
		}
		wg.Add(len(c.t))
		e.submitChunk(s, c) // chunk ownership passes to the bucket
		open[s] = nil
	}
	for i := range ops {
		op := &ops[i]
		s := e.shardOf(op.Key)
		c := open[s]
		if c == nil {
			c = e.getChunk()
			open[s] = c
			dirty = append(dirty, s)
		}
		t := task{
			kind: op.Kind, key: op.Key, value: op.Value,
			hash: hashKey(op.Key), idx: i, done: &wg,
		}
		if slots != nil && op.Kind == workload.Read {
			t.res = &slots[i]
		}
		t.enq, t.lat, t.traced = e.sample()
		c.t = append(c.t, t)
		if len(c.t) == cap(c.t) {
			flush(s)
		}
		if (i+1)%dispatchStripe == 0 {
			for _, ds := range dirty {
				flush(ds)
			}
			dirty = dirty[:0]
		}
	}
	for _, ds := range dirty {
		flush(ds)
	}
	e.ms.Add(metrics.CtrCombineSteps, int64(len(ops)))
	wg.Wait()
}

// LatencyHistogram merges the per-worker end-to-end latency histograms
// (populated when Config.RecordLatency is set; true submit to completion)
// into a fresh copy. Safe to call while the pipeline is live: each
// worker's histogram is folded in under its histogram mutex.
func (e *Engine) LatencyHistogram() *metrics.Histogram {
	return e.mergeHistograms(func(w *worker) *metrics.Histogram { return w.histTotal })
}

// QueueWaitHistogram merges the per-worker queue-wait histograms: the time
// from true submit until the operation's trigger batch began executing.
func (e *Engine) QueueWaitHistogram() *metrics.Histogram {
	return e.mergeHistograms(func(w *worker) *metrics.Histogram { return w.histQueue })
}

// ExecHistogram merges the per-worker execute-time histograms: the time
// from an operation's trigger batch beginning until its completion.
func (e *Engine) ExecHistogram() *metrics.Histogram {
	return e.mergeHistograms(func(w *worker) *metrics.Histogram { return w.histExec })
}

func (e *Engine) mergeHistograms(pick func(*worker) *metrics.Histogram) *metrics.Histogram {
	h := metrics.NewHistogram()
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, w := range e.workers {
		w.histMu.Lock()
		h.Merge(pick(w))
		w.histMu.Unlock()
	}
	return h
}

// WorkerOps returns the number of operations each worker has executed
// (stolen and handed-off buckets count for the worker that ran them);
// the skewed-load balance tests assert on this.
func (e *Engine) WorkerOps() []int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]int64, len(e.workers))
	for i, w := range e.workers {
		out[i] = w.ops.Load()
	}
	return out
}

// WorkerHeartbeats returns each worker's progress heartbeat: trigger
// batches completed. Safe while the pipeline is live; returns per-worker
// zeros before the pool starts.
func (e *Engine) WorkerHeartbeats() []uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]uint64, e.cfg.Workers)
	for i, w := range e.workers {
		out[i] = w.beats.Load()
	}
	return out
}

// MaxInflight returns the configured total in-flight bound (the
// denominator of the obs layer's saturation gauge pair).
func (e *Engine) MaxInflight() int { return e.cfg.MaxInflight }

// ShortcutCount sums the live per-worker Shortcut_Table populations. Safe
// to call while the pipeline is live (reads each table's atomic mirror).
func (e *Engine) ShortcutCount() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	n := int64(0)
	for _, w := range e.workers {
		n += w.shortcuts.liveA.Load()
	}
	return int(n)
}

// HotsetCount sums the live per-worker hot-node anchor populations. Safe
// to call while the pipeline is live (reads each hotset's atomic mirror).
func (e *Engine) HotsetCount() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	n := int64(0)
	for _, w := range e.workers {
		if w.hotset != nil {
			n += w.hotset.liveA.Load()
		}
	}
	return int(n)
}

// anchorMaxDepth bounds how deep a cached batch anchor may sit: the loaded
// common prefix plus the whole bytes of the bucket label. An anchor below
// that could be narrower than its bucket and would miss keys the bucket
// legitimately routes.
func (e *Engine) anchorMaxDepth() int {
	return e.prefixSkip + prefixBits/8
}

// commonPrefixLenAll returns the length of the byte prefix shared by every
// key (capped so at least one varying byte remains), as in internal/ctt.
func commonPrefixLenAll(keys [][]byte) int {
	if len(keys) == 0 {
		return 0
	}
	cp := len(keys[0])
	for _, k := range keys[1:] {
		n := cp
		if len(k) < n {
			n = len(k)
		}
		i := 0
		for i < n && k[i] == keys[0][i] {
			i++
		}
		cp = i
		if cp == 0 {
			return 0
		}
	}
	if cp > 0 && cp >= len(keys[0]) {
		cp = len(keys[0]) - 1
	}
	return cp
}
