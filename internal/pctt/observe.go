package pctt

import (
	"strconv"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// Live observability accessors. Unlike the measurement-oriented methods in
// pctt.go (WorkerOps, histogram merges), these are designed to be scraped
// while the pipeline is under load: every read is an atomic load or a
// short read-locked walk, never a bucket lock or a worker handshake.

// ObsGroup is the registry group tag RegisterObs registers under; a second
// RegisterObs call (e.g. the bench harness swapping engines between rows)
// replaces the previous engine's registrations wholesale.
const ObsGroup = "pctt"

// RingDepth returns the number of queued combine buckets in worker i's
// ring (0 before the pipeline starts or for an out-of-range worker).
func (e *Engine) RingDepth(i int) int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if i < 0 || i >= len(e.rings) {
		return 0
	}
	return e.rings[i].length()
}

// BucketStateCounts returns how many combine buckets are currently idle,
// queued, and running. The counts are a live sample, not a consistent cut:
// each bucket's state is read atomically but buckets move while the walk
// runs — exactly the fidelity a gauge scrape needs.
func (e *Engine) BucketStateCounts() (idle, queued, running int) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.buckets == nil {
		return nBuckets, 0, 0
	}
	for i := range e.buckets {
		switch e.buckets[i].state.Load() {
		case bQueued:
			queued++
		case bRunning:
			running++
		default:
			idle++
		}
	}
	return idle, queued, running
}

// InflightOps returns the submitted-but-incomplete operation count.
func (e *Engine) InflightOps() int64 { return e.inflight.Load() }

// WorkerHeartbeat returns worker i's progress heartbeat (0 before the
// pipeline starts or for an out-of-range worker).
func (e *Engine) WorkerHeartbeat(i int) uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if i < 0 || i >= len(e.workers) {
		return 0
	}
	return e.workers[i].beats.Load()
}

// RegisterObs registers the engine's live gauges, counters, and (when
// RecordLatency is on) latency histograms with the observability registry
// under ObsGroup, replacing any previously registered engine. The exported
// series are the live form of the counters the paper's figures are built
// from: lock contention (Fig 7), key matches (Fig 8), shortcut hits and
// redundancy (Fig 2), plus the P-CTT scheduling state (ring depths, bucket
// states, steal/handoff counters) PR 3 introduced.
func (e *Engine) RegisterObs(r *obs.Registry) {
	e.RegisterObsTagged(r, ObsGroup, "")
}

// RegisterObsTagged is RegisterObs under a caller-chosen registry group
// and with a pre-rendered label body (`shard="2"`, or empty) stamped on
// every exported series. A sharded store registers each sub-engine under
// its own group tag with a shard label, so several engines coexist in one
// registry — where plain RegisterObs replaces whatever engine held
// ObsGroup before it.
func (e *Engine) RegisterObsTagged(r *obs.Registry, group, labels string) {
	r.UnregisterGroup(group)
	r.RegisterCountersLabeled(group, "dcart", labels,
		"engine event counter (see internal/metrics for the vocabulary)", e.ms)
	r.RegisterGauge(group, "dcart_pctt_workers", labels,
		"configured P-CTT worker goroutines (SOU analogues)",
		func() float64 { return float64(e.cfg.Workers) })
	r.RegisterGauge(group, "dcart_pctt_inflight_ops", labels,
		"submitted-but-incomplete operations (bounded by MaxInflight)",
		func() float64 { return float64(e.InflightOps()) })
	r.RegisterGauge(group, "dcart_pctt_max_inflight", labels,
		"configured MaxInflight bound (the saturation rule's denominator "+
			"for dcart_pctt_inflight_ops)",
		func() float64 { return float64(e.cfg.MaxInflight) })
	r.RegisterGauge(group, "dcart_pctt_shortcut_entries", labels,
		"live Shortcut_Table entries summed across workers",
		func() float64 { return float64(e.ShortcutCount()) })
	r.RegisterGauge(group, "dcart_pctt_hotset_entries", labels,
		"resident hot-node anchors (software Tree_buffer) summed across workers",
		func() float64 { return float64(e.HotsetCount()) })
	r.RegisterGauge(group, "dcart_pctt_nodes_per_op", labels,
		"tree nodes visited per executed operation (node_accesses over ops; "+
			"the quantity batch-shared descents drive down, paper Fig 6)",
		func() float64 {
			ops := e.ms.Get(metrics.CtrOpsRead) + e.ms.Get(metrics.CtrOpsWrite)
			if ops == 0 {
				return 0
			}
			return float64(e.ms.Get(metrics.CtrNodeAccesses)) / float64(ops)
		})
	r.RegisterGauge(group, "dcart_pctt_shared_descents", labels,
		"batch-shared lock-coupled descents (one traversal serving a whole "+
			"sorted key batch)",
		func() float64 { return float64(e.ms.Get(metrics.CtrSharedDescents)) })
	for i := 0; i < e.cfg.Workers; i++ {
		i := i
		wl := obs.JoinLabels(labels, obs.Label("worker", strconv.Itoa(i)))
		r.RegisterGauge(group, "dcart_pctt_ring_depth", wl,
			"queued combine buckets in the worker's lock-free ring",
			func() float64 { return float64(e.RingDepth(i)) })
		r.RegisterGauge(group, "dcart_pctt_worker_heartbeat", wl,
			"trigger batches completed by the worker (progress heartbeat; "+
				"frozen while occupancy is non-zero = stalled)",
			func() float64 { return float64(e.WorkerHeartbeat(i)) })
	}
	for _, st := range []struct {
		label string
		pick  func(idle, queued, running int) int
	}{
		{"idle", func(i, _, _ int) int { return i }},
		{"queued", func(_, q, _ int) int { return q }},
		{"running", func(_, _, r int) int { return r }},
	} {
		st := st
		r.RegisterGauge(group, "dcart_pctt_bucket_state",
			obs.JoinLabels(labels, obs.Label("state", st.label)),
			"combine buckets by scheduling state",
			func() float64 { return float64(st.pick(e.BucketStateCounts())) })
	}
	if e.cfg.RecordLatency {
		r.RegisterHistogramLabeled(group, "dcart_pctt_latency_seconds", labels,
			"sampled end-to-end operation latency (true submit to completion)",
			e.LatencyHistogram)
		r.RegisterHistogramLabeled(group, "dcart_pctt_queue_wait_seconds", labels,
			"sampled combine + queue wait (submit until trigger batch start)",
			e.QueueWaitHistogram)
		r.RegisterHistogramLabeled(group, "dcart_pctt_exec_seconds", labels,
			"sampled trigger-execute time (batch start until completion)",
			e.ExecHistogram)
	}
}
