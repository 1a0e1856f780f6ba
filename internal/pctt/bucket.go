package pctt

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Bucket states. Transitions (always under bucket.mu):
//
//	idle   --first pending op-->            queued  (ID pushed to owner's ring)
//	queued --popped by a worker-->          running (backlog chunks gathered)
//	running--backlog refilled during exec-->queued  (ID re-pushed, possibly handed off)
//	running--backlog empty after exec-->    idle
//
// A queued bucket has exactly one ring entry, so at most one worker ever
// runs a bucket at a time; combined with the FIFO backlog this gives
// per-key FIFO (read-your-writes) no matter which worker ends up executing
// the bucket — the property that makes whole-bucket work stealing safe.
const (
	bIdle int32 = iota
	bQueued
	bRunning
)

// bucket is one combine bucket: all keys sharing a prefixBits-bit prefix.
// It is the unit of batching and of work stealing (a bucket moves between
// workers whole). Its combine window has no clock: whatever arrives while
// the bucket waits in a ring or while its worker executes the previous
// batch is the next batch.
//
// The backlog is a FIFO list of task chunks. Run hands over whole chunks
// it filled; a token operation is appended to the open tail chunk (submit),
// so a chunk is fetched per batch, not per operation. Either way a task is
// constructed once, in the chunk it executes from, and the resident
// pointer-bearing memory the collector must scan stays bounded by the
// in-flight window rather than by high-water backlogs: a worker takes
// whole chunks, so an idle bucket holds none.
type bucket struct {
	mu     sync.Mutex
	cond   sync.Cond // producers waiting for backlog space
	chunks []*chunk  // FIFO backlog; the last one is the open tail
	nops   int       // total tasks across chunks
	// state is written only under mu (the transitions above) but stored
	// atomically so the observability layer can read live idle/queued/
	// running gauge counts without taking nBuckets bucket locks.
	state   atomic.Int32
	waiters int
	// owner is the worker whose ring receives this bucket's queue events.
	// It starts at bucketID mod Workers and is re-recorded on every steal
	// or handoff; Shortcut_Table entries migrate lazily (the new owner
	// simply misses and re-populates its private table).
	owner int32
}

// admit passes n operations through both levels of backpressure — the
// global MaxInflight gate bounds total queue wait, the per-bucket
// QueueDepth cap keeps any one hot bucket from absorbing the whole
// allowance — and returns the bucket locked, for the caller to append to
// its backlog and publish.
func (e *Engine) admit(shard, n int) *bucket {
	b := &e.buckets[shard]
	e.inflightGate()
	e.inflight.Add(int64(n))
	b.mu.Lock()
	for b.nops >= e.cfg.QueueDepth {
		b.waiters++
		b.cond.Wait()
		b.waiters--
	}
	b.nops += n
	return b
}

// publish unlocks a bucket whose backlog the caller just extended and, on
// the idle->queued transition, schedules it on its owner's ring.
func (e *Engine) publish(shard int, b *bucket) {
	notify := int32(-1)
	if b.state.Load() == bIdle {
		b.state.Store(bQueued)
		notify = b.owner
	}
	b.mu.Unlock()
	if notify >= 0 {
		e.enqueueBucket(int(notify), int32(shard))
	}
}

// submitChunk appends a pre-sharded run of tasks to the bucket's backlog,
// taking ownership of the chunk (the executing worker recycles it).
func (e *Engine) submitChunk(shard int, c *chunk) {
	b := e.admit(shard, len(c.t))
	b.chunks = append(b.chunks, c)
	e.publish(shard, b)
}

// submitTask appends one task to the bucket's open tail chunk, fetching a
// chunk only when the backlog is empty or its tail is full. A worker takes
// chunks whole and under the same lock, so a chunk still listed here is
// not executing.
func (e *Engine) submitTask(shard int, t task) {
	b := e.admit(shard, 1)
	var c *chunk
	if n := len(b.chunks); n > 0 && len(b.chunks[n-1].t) < cap(b.chunks[n-1].t) {
		c = b.chunks[n-1]
	} else {
		c = e.getChunk()
		b.chunks = append(b.chunks, c)
	}
	c.t = append(c.t, t)
	e.publish(shard, b)
}

// inflightGate applies the global MaxInflight bound: a producer yields the
// processor until the pipeline has drained below the bound. Yield-spinning
// (rather than a condition variable) is deliberate — the bound only binds
// while workers are saturated, which is exactly when yielding hands them
// the processor; there is no state in which both sides sleep.
func (e *Engine) inflightGate() {
	for e.inflight.Load() >= int64(e.cfg.MaxInflight) {
		runtime.Gosched()
	}
}

// enqueueBucket publishes a queued bucket to worker wk's ring and makes
// sure someone will process it: the owner is woken if parked, and when the
// ring holds a serious backlog (more queued buckets than could possibly
// fill the owner's next gathered batch) an idle peer is nudged to come
// steal. The high threshold matters: waking thieves for small backlogs
// fragments trigger batches and churns bucket ownership — and with it the
// per-worker Shortcut_Tables — for no added bandwidth.
func (e *Engine) enqueueBucket(wk int, id int32) {
	r := e.rings[wk]
	r.mustPush(id)
	e.wakeWorker(wk)
	if !e.cfg.NoSteal && int(r.length()) > stealWakeThreshold {
		e.wakeIdlePeer(wk)
	}
}
