package main

import (
	"io"
	"net"

	"repro/internal/kvserver"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/store"
)

// layerProbe gathers the per-layer counts of one traced timed section:
// the benchmark's own decorators around the store and the sockets, and
// the public counters of the layers below them. A nil probe is an
// untraced run: nothing is decorated and nothing is counted.
type layerProbe struct {
	st       *store.Batched
	tr       *tracer
	counters storeCounters
	sockets  socketTotals
	// Set on the wire workloads only.
	conns  int // server connections
	server func() kvserver.PipelineStats

	// The state when the timed section began.
	stores  storeTotals
	sock    socketSnapshot
	pipe    kvserver.PipelineStats
	engine  map[string]int64
	workers []int64
	queue   *metrics.Histogram
	exec    *metrics.Histogram
	runtime obs.RuntimeSnapshot
}

func newLayerProbe(st *store.Batched, tr *tracer) *layerProbe {
	if tr == nil {
		return nil
	}
	return &layerProbe{st: st, tr: tr}
}

// decorate returns the store a producer (or the server) should use: st
// itself when untraced, else the timing decorator. producerOf nil pins
// every key to producer p.
func (lp *layerProbe) decorate(st store.Store, p int, producerOf func([]byte) int) store.Store {
	if lp == nil {
		return st
	}
	if producerOf == nil {
		producerOf = func([]byte) int { return p }
	}
	return &timedStore{Store: st, tr: lp.tr, producerOf: producerOf, c: &lp.counters}
}

// wrapConn decorates an accepted connection.
func (lp *layerProbe) wrapConn(conn net.Conn) io.ReadWriteCloser {
	return &timedConn{conn, &lp.sockets}
}

type socketSnapshot struct{ reads, writes, bytes, readWaitNs, writeNs int64 }

func (t *socketTotals) snapshot() socketSnapshot {
	return socketSnapshot{t.reads.Load(), t.writes.Load(), t.bytes.Load(),
		t.readWaitNs.Load(), t.writeNs.Load()}
}

// begin notes the state at the start of the timed section; the pipeline
// is idle then.
func (lp *layerProbe) begin() {
	if lp == nil {
		return
	}
	e := lp.st.Engine()
	lp.stores = lp.counters.totals()
	lp.sock = lp.sockets.snapshot()
	if lp.server != nil {
		lp.pipe = lp.server()
	}
	lp.engine = e.Metrics().Snapshot()
	lp.workers = e.WorkerOps()
	lp.queue, lp.exec = e.QueueWaitHistogram(), e.ExecHistogram()
	lp.runtime = obs.ReadRuntime()
}

// layerCounts are the raw per-layer counts of one timed section.
type layerCounts struct {
	wallNs  int64
	cpuNs   int64
	conns   int
	stores  storeTotals
	sock    socketSnapshot
	pipe    kvserver.PipelineStats
	engine  map[string]int64 // counter deltas of the shared olc/pctt set
	workers []int64          // operations per engine worker
	queue   *metrics.Histogram
	exec    *metrics.Histogram
	runtime obs.RuntimeDelta
}

// end returns what happened since begin; the pipeline is idle again.
func (lp *layerProbe) end(use usage) layerCounts {
	if lp == nil {
		return layerCounts{}
	}
	e := lp.st.Engine()
	lc := layerCounts{wallNs: use.wall, cpuNs: use.cpu, conns: lp.conns}
	lc.stores = lp.counters.totals().minus(lp.stores)
	s := lp.sockets.snapshot()
	lc.sock = socketSnapshot{s.reads - lp.sock.reads, s.writes - lp.sock.writes,
		s.bytes - lp.sock.bytes, s.readWaitNs - lp.sock.readWaitNs, s.writeNs - lp.sock.writeNs}
	if lp.server != nil {
		p := lp.server()
		lc.pipe = kvserver.PipelineStats{Flushes: p.Flushes - lp.pipe.Flushes,
			Responses: p.Responses - lp.pipe.Responses, DepthSum: p.DepthSum - lp.pipe.DepthSum}
	}
	lc.engine = e.Metrics().Snapshot()
	for name, v := range lp.engine {
		lc.engine[name] -= v
	}
	lc.workers = e.WorkerOps()
	for i := range lp.workers {
		lc.workers[i] -= lp.workers[i]
	}
	lc.queue = e.QueueWaitHistogram().Delta(lp.queue)
	lc.exec = e.ExecHistogram().Delta(lp.exec)
	lc.runtime = obs.ReadRuntime().DeltaSince(lp.runtime)
	return lc
}

// per divides, giving 0 for an empty denominator.
func per(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metrics turns the counts of a section of ops operations into the
// per-layer metrics below the ladder. Layers the workload does not pass
// through report 0.
func (lc layerCounts) metrics(ops int64, out map[string]float64) {
	n := float64(ops)
	c := func(name string) float64 { return float64(lc.engine[name]) }
	points := c(metrics.CtrOpsRead) + c(metrics.CtrOpsWrite) + c(metrics.CtrBypassOps)

	out["socket.read_calls_per_op"] = per(float64(lc.sock.reads), n)
	out["socket.write_calls_per_op"] = per(float64(lc.sock.writes), n)
	out["socket.bytes_per_op"] = per(float64(lc.sock.bytes), n)
	out["socket.read_wait_ns_per_op"] = per(float64(lc.sock.readWaitNs), n)
	out["socket.write_ns_per_op"] = per(float64(lc.sock.writeNs), n)

	out["kvserver.flushes_per_op"] = per(float64(lc.pipe.Flushes), float64(lc.pipe.Responses))
	out["kvserver.depth_achieved"] = per(float64(lc.pipe.DepthSum), float64(lc.pipe.Responses))
	// The reader goroutine of a connection is reading the socket,
	// submitting to the store, or parsing and waiting for window room;
	// the last is what is left of its wall time.
	reader := 0.0
	if lc.conns > 0 {
		reader = float64(lc.conns)*float64(lc.wallNs) - float64(lc.sock.readWaitNs) - float64(lc.stores.submitNs)
	}
	out["kvserver.reader_ns_per_op"] = per(reader, n)

	out["store.submit_ns_per_op"] = per(float64(lc.stores.submitNs), float64(lc.stores.submits))
	out["store.wait_ns_per_op"] = per(float64(lc.stores.waitNs), float64(lc.stores.waits))
	out["store.scan_ns_per_row"] = per(float64(lc.stores.scanNs), float64(lc.stores.scanRows))

	quantileUs := func(h *metrics.Histogram, q float64) float64 {
		if h == nil || h.Count() == 0 {
			return 0
		}
		return h.Quantile(q) * 1e6
	}
	out["pctt.queue_wait_p50_us"] = quantileUs(lc.queue, 0.50)
	out["pctt.queue_wait_p99_us"] = quantileUs(lc.queue, 0.99)
	out["pctt.exec_p50_us"] = quantileUs(lc.exec, 0.50)
	out["pctt.exec_p99_us"] = quantileUs(lc.exec, 0.99)
	out["pctt.ops_per_batch"] = per(c(metrics.CtrOpsRead)+c(metrics.CtrOpsWrite), c(metrics.CtrBatches))
	out["pctt.coalesced_per_op"] = per(c(metrics.CtrCoalesced), points)
	out["pctt.shortcut_hit_rate"] = per(c(metrics.CtrShortcutHit), c(metrics.CtrShortcutHit)+c(metrics.CtrShortcutMiss))
	out["pctt.hotset_hit_rate"] = per(c(metrics.CtrHotsetHit), c(metrics.CtrHotsetHit)+c(metrics.CtrHotsetMiss))
	out["pctt.deferrals_per_kop"] = per(1000*c(metrics.CtrWindowDeferrals), points)
	out["pctt.steals_per_kop"] = per(1000*c(metrics.CtrBucketSteals), points)
	out["pctt.handoffs_per_kop"] = per(1000*c(metrics.CtrBucketHandoffs), points)
	out["pctt.bypass_share"] = per(c(metrics.CtrBypassOps), points)
	var most, all float64
	for _, w := range lc.workers {
		most, all = max(most, float64(w)), all+float64(w)
	}
	out["pctt.worker_imbalance"] = per(most*float64(len(lc.workers)), all)

	out["olc.node_accesses_per_op"] = per(c(metrics.CtrNodeAccesses), points)
	out["olc.key_matches_per_op"] = per(c(metrics.CtrKeyMatches), points)
	out["olc.lock_contention_per_kop"] = per(1000*c(metrics.CtrLockContention), points)
	out["olc.restarts_per_kop"] = per(1000*c(metrics.CtrRestarts), points)
	out["olc.shared_descents_per_kop"] = per(1000*c(metrics.CtrSharedDescents), points)
	out["olc.batch_fallback_rate"] = per(c(metrics.CtrBatchFallbacks), points)
	out["olc.scan_rows_per_scan"] = per(c(metrics.CtrScanRows), c(metrics.CtrOpsScan))

	seconds := float64(lc.wallNs) / 1e9
	out["runtime.cpu_ns_per_op"] = per(float64(lc.cpuNs), n)
	out["runtime.gc_cycles_per_s"] = per(float64(lc.runtime.GCCycles), seconds)
	out["runtime.gc_pause_us_per_s"] = per(lc.runtime.GCPauseTotalNanos/1e3, seconds)
	out["runtime.sched_lat_p99_us"] = lc.runtime.SchedLatP99Nanos / 1e3
	out["runtime.heap_live_mb"] = float64(lc.runtime.HeapLiveBytes) / (1 << 20)
}
