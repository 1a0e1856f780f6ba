package pctt

import (
	"sync"
	"time"

	"repro/internal/workload"
)

// Pending is the completion token of one submitted point operation. Wait
// blocks until the operation has applied and returns its outcome; it must
// be called exactly once — the token is pooled and becomes invalid the
// moment Wait returns.
//
// Holding several tokens is how a single producer (e.g. one pipelined
// server connection) keeps several operations in flight at once, so the
// combine window sees more than one of its requests per batch. Tasks enter
// their combine bucket in submission order, so per key, per producer, FIFO
// holds — a producer that submits W(k,v) then R(k) observes v once both
// tokens resolve, whether or not it waited in between.
type Pending struct {
	// reply delivers the outcome (buffered 1, so the worker never blocks).
	// The token owns it for life: between Wait and the next submit it is
	// empty, and one pool round-trip recycles both.
	reply chan taskResult
}

var pendingPool = sync.Pool{
	New: func() any { return &Pending{reply: make(chan taskResult, 1)} },
}

// Wait blocks until the operation has applied. The returned pair is
// (value, present) for Get, (_, replaced) for Put, and (_, present) for
// Delete.
func (p *Pending) Wait() (uint64, bool) {
	r := <-p.reply
	pendingPool.Put(p)
	return r.value, r.found
}

// GetAsync submits a read without waiting for it. The key must not be
// mutated until Wait returns.
func (e *Engine) GetAsync(key []byte) *Pending {
	return e.submit(task{kind: workload.Read, key: key})
}

// PutAsync submits a write without waiting for it; Wait reports whether an
// existing value was replaced.
func (e *Engine) PutAsync(key []byte, value uint64) *Pending {
	return e.submit(task{kind: workload.Write, key: key, value: value})
}

// DeleteAsync submits a removal without waiting for it; Wait reports
// whether the key was present.
func (e *Engine) DeleteAsync(key []byte) *Pending {
	return e.submit(task{kind: workload.Delete, key: key})
}

// Get, Put and Delete are the blocking forms: submit, then wait. Concurrent
// callers on keys sharing a prefix bucket are combined into one trigger
// batch by the executing worker, which is where the lock-amortization wins
// come from under concurrent load.
func (e *Engine) Get(key []byte) (uint64, bool) { return e.GetAsync(key).Wait() }

func (e *Engine) Put(key []byte, value uint64) bool {
	_, replaced := e.PutAsync(key, value).Wait()
	return replaced
}

func (e *Engine) Delete(key []byte) bool {
	_, present := e.DeleteAsync(key).Wait()
	return present
}

// submit is the one entry to the pipeline for a point operation: the task
// joins its combine bucket's open tail chunk and the caller gets its
// completion token. The key hash is computed here, on the caller's
// goroutine, and carried in the task so the worker's grouping and
// Shortcut_Table lookups never re-hash. Submission may block on the
// pipeline's backpressure gates (MaxInflight, QueueDepth) — that is the
// bound that keeps a fast producer from growing the backlog without limit.
// After Close the operation executes on the caller's goroutine and the
// token comes back already resolved (the pipeline's ordering guarantees no
// longer apply, but the tree itself stays safe for concurrent use).
func (e *Engine) submit(t task) *Pending {
	e.start()
	t.hash = hashKey(t.key)
	t.enq, t.lat, t.traced = e.sample()
	p := pendingPool.Get().(*Pending)

	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		p.reply <- e.direct(t)
		return p
	}
	t.reply = p.reply
	e.submitTask(e.shardOf(t.key), t)
	e.mu.RUnlock()
	return p
}

// sample is the engine's one sampling decision, made at true submit time
// for every operation (point tasks and scans alike). Latency is sampled
// 1-in-16 so a live server's histogram upkeep stays off most requests; the
// tracer makes its own (typically much sparser) choice; an armed slow-op
// journal stamps everything. enq is the unix-nano submit stamp, zero when
// the operation is unobserved and must never touch the clock again.
func (e *Engine) sample() (enq int64, lat, traced bool) {
	lat = e.cfg.RecordLatency && e.latN.Add(1)&15 == 0
	traced = e.cfg.Tracer != nil && e.cfg.Tracer.Sample()
	if lat || traced || e.cfg.Journal != nil {
		enq = time.Now().UnixNano()
	}
	return enq, lat, traced
}

// direct executes one operation against the tree on the caller's
// goroutine: the post-Close path of submit and Run.
func (e *Engine) direct(t task) taskResult {
	switch t.kind {
	case workload.Read:
		v, ok := e.tree.Get(t.key)
		return taskResult{value: v, found: ok}
	case workload.Write:
		return taskResult{found: e.tree.Put(t.key, t.value)}
	default:
		return taskResult{found: e.tree.Delete(t.key)}
	}
}
