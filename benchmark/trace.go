package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/store"
)

// spanEvery is the stride at which operations get spans: a multiple of
// latEvery, so a spanned operation always has a send time.
const spanEvery = 64

// Span names, outermost first. A client.request covers an operation from
// the moment the load generator sends it (or, in the open loop, was due to
// send it) until it has the reply; store.op covers it inside the store
// decorator from submission to completion, and store.submit/store.wait are
// the two calls into the store that it consists of. store.scan stands
// alone.
const (
	spanRequest = "client.request"
	spanStoreOp = "store.op"
	spanSubmit  = "store.submit"
	spanWait    = "store.wait"
	spanScan    = "store.scan"
)

// span is one traced interval. Spans of one request share Producer and Op
// (the request's index in its producer's stream since the warm-up began);
// Parent names the span of the same request that caused this one.
type span struct {
	Name     string `json:"name"`
	Producer int    `json:"producer"`
	Op       int64  `json:"op"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Parent   string `json:"parent,omitempty"`
}

// tracer keeps the run's spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) record(name string, producer int, op, start, end int64, parent string) {
	t.mu.Lock()
	t.spans = append(t.spans, span{name, producer, op, start, end, parent})
	t.mu.Unlock()
}

// writeNDJSON writes one span per line.
func (t *tracer) writeNDJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	return nil
}

func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.writeNDJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span name, the mean self time in nanoseconds: a
// span's duration minus the part of it that its child spans cover
// (overlapping children are counted once).
func selfTimes(spans []span) map[string]float64 {
	type request struct {
		producer int
		op       int64
	}
	byRequest := make(map[request][]span)
	for _, s := range spans {
		r := request{s.Producer, s.Op}
		byRequest[r] = append(byRequest[r], s)
	}
	sum := make(map[string]float64)
	count := make(map[string]float64)
	for _, group := range byRequest {
		for _, s := range group {
			var children []span
			for _, c := range group {
				if c.Parent == s.Name && c.Name != s.Name {
					children = append(children, c)
				}
			}
			sum[s.Name] += float64(s.End - s.Start - cover(s, children))
			count[s.Name]++
		}
	}
	for name := range sum {
		sum[name] /= count[name]
	}
	return sum
}

// cover returns how much of parent's interval its children cover.
func cover(parent span, children []span) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	var covered int64
	at := parent.Start
	for _, c := range children {
		start, end := max(c.Start, at), min(c.End, parent.End)
		if end > start {
			covered += end - start
			at = end
		}
	}
	return covered
}

// storeSide is the decorator's accounting for one producer's operations.
// The submitting and the waiting goroutine differ on the wire, and the
// totals are read while server goroutines are still alive, hence atomics;
// the padding keeps the producers' counters on separate cache lines.
type storeSide struct {
	submits  atomic.Int64
	waits    atomic.Int64
	submitNs atomic.Int64
	waitNs   atomic.Int64
	_        [32]byte
}

// timedStore is the benchmark's store decorator: it times every
// asynchronous submission (back-pressure), every Pending.Wait and every
// scan, and records spans for every spanEvery-th operation of a producer.
// Blocking point operations and the rest of the contract pass through.
type timedStore struct {
	store.Store
	tr *tracer
	// producerOf attributes a key to its producer: a constant on the engine
	// workloads, where each producer has a decorator of its own, the key's
	// owner on the wire, where both connections share the server's.
	producerOf func(key []byte) int
	c          *storeCounters // shared by the decorators of one store
}

type storeCounters struct {
	per      [producers]storeSide
	scans    atomic.Int64
	scanRows atomic.Int64
	scanNs   atomic.Int64
}

// timedPending carries an operation's identity from submission to Wait.
type timedPending struct {
	inner    store.Pending
	s        *timedStore
	producer int
	op       int64
	start    int64 // submission began
	queued   int64 // submission returned
}

var timedPendingPool = sync.Pool{New: func() any { return new(timedPending) }}

// begin starts timing a submission; enqueue ends it.
func (s *timedStore) begin(key []byte) *timedPending {
	p := s.producerOf(key)
	tp := timedPendingPool.Get().(*timedPending)
	tp.s, tp.producer, tp.op = s, p, s.c.per[p].submits.Add(1)-1
	tp.start = now()
	return tp
}

func (tp *timedPending) enqueue(inner store.Pending) store.Pending {
	tp.inner = inner
	tp.queued = now()
	tp.s.c.per[tp.producer].submitNs.Add(tp.queued - tp.start)
	return tp
}

func (s *timedStore) GetAsync(key []byte) store.Pending {
	tp := s.begin(key)
	return tp.enqueue(s.Store.GetAsync(key))
}

func (s *timedStore) PutAsync(key []byte, value uint64) store.Pending {
	tp := s.begin(key)
	return tp.enqueue(s.Store.PutAsync(key, value))
}

func (s *timedStore) DeleteAsync(key []byte) store.Pending {
	tp := s.begin(key)
	return tp.enqueue(s.Store.DeleteAsync(key))
}

func (tp *timedPending) Wait() (uint64, bool) {
	s, side := tp.s, &tp.s.c.per[tp.producer]
	begin := now()
	val, found := tp.inner.Wait()
	end := now()
	side.waits.Add(1)
	side.waitNs.Add(end - begin)
	if tp.op%spanEvery == 0 {
		s.tr.record(spanStoreOp, tp.producer, tp.op, tp.start, end, spanRequest)
		s.tr.record(spanSubmit, tp.producer, tp.op, tp.start, tp.queued, spanStoreOp)
		s.tr.record(spanWait, tp.producer, tp.op, begin, end, spanStoreOp)
	}
	*tp = timedPending{}
	timedPendingPool.Put(tp)
	return val, found
}

func (s *timedStore) Scan(prefix []byte, limit int, fn store.Visitor) bool {
	begin := now()
	rows := int64(0)
	truncated := s.Store.Scan(prefix, limit, func(k []byte, v uint64) bool {
		rows++
		return fn(k, v)
	})
	end := now()
	n := s.c.scans.Add(1) - 1
	s.c.scanRows.Add(rows)
	s.c.scanNs.Add(end - begin)
	if n%spanEvery == 0 {
		s.tr.record(spanScan, s.producerOf(prefix), n, begin, end, "")
	}
	return truncated
}

// storeTotals is a point-in-time copy of a decorator's counters.
type storeTotals struct {
	submits, waits, submitNs, waitNs, scans, scanRows, scanNs int64
}

func (c *storeCounters) totals() storeTotals {
	t := storeTotals{scans: c.scans.Load(), scanRows: c.scanRows.Load(), scanNs: c.scanNs.Load()}
	for p := range c.per {
		t.submits += c.per[p].submits.Load()
		t.waits += c.per[p].waits.Load()
		t.submitNs += c.per[p].submitNs.Load()
		t.waitNs += c.per[p].waitNs.Load()
	}
	return t
}

func (t storeTotals) minus(o storeTotals) storeTotals {
	return storeTotals{t.submits - o.submits, t.waits - o.waits, t.submitNs - o.submitNs,
		t.waitNs - o.waitNs, t.scans - o.scans, t.scanRows - o.scanRows, t.scanNs - o.scanNs}
}

// socketTotals counts what crosses the server's side of the connections.
type socketTotals struct {
	reads, writes, bytes, readWaitNs, writeNs atomic.Int64
}

// timedConn is the benchmark's socket decorator, wrapped around each
// accepted connection before the server gets it.
type timedConn struct {
	io.ReadWriteCloser
	t *socketTotals
}

func (c *timedConn) Read(p []byte) (int, error) {
	begin := now()
	n, err := c.ReadWriteCloser.Read(p)
	c.t.readWaitNs.Add(now() - begin)
	c.t.reads.Add(1)
	c.t.bytes.Add(int64(n))
	return n, err
}

func (c *timedConn) Write(p []byte) (int, error) {
	begin := now()
	n, err := c.ReadWriteCloser.Write(p)
	c.t.writeNs.Add(now() - begin)
	c.t.writes.Add(1)
	c.t.bytes.Add(int64(n))
	return n, err
}
