package pctt

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// Ordered reads (prefix scans, range scans, full walks) on the parallel
// engine. Scans do not ride the combine pipeline — they are multi-key
// ordered traversals, not point operations, so there is nothing to
// coalesce — but routing them through the engine instead of reaching into
// the tree makes them first-class citizens of the engine's observability:
// each scan counts into ops_scan/scan_rows and (when sampled) records a
// lifecycle span, where previously kvserver's scans were invisible to
// tracing and metrics.
//
// Consistency matches olc's lock-crabbing contract: each visited node is
// observed in a consistent state, but the scan is not a snapshot — point
// writes applied by the pipeline during the scan may or may not be seen.
// A caller's own acked writes are visible, because a token's Wait returns
// only after the write applied.

// Len returns the number of keys in the engine's tree.
func (e *Engine) Len() int { return e.tree.Len() }

// ScanPrefix visits, in ascending key order, every key starting with
// prefix. fn returning false stops the scan; ScanPrefix reports whether it
// ran to exhaustion.
func (e *Engine) ScanPrefix(prefix []byte, fn func(key []byte, value uint64) bool) bool {
	done := e.beginScan("scan", prefix)
	rows := 0
	complete := e.tree.ScanPrefix(prefix, func(k []byte, v uint64) bool {
		rows++
		return fn(k, v)
	})
	done(rows)
	return complete
}

// AscendRange visits keys k with lo <= k <= hi in ascending order (nil
// bounds are open). fn returning false stops the scan.
func (e *Engine) AscendRange(lo, hi []byte, fn func(key []byte, value uint64) bool) bool {
	done := e.beginScan("range", lo)
	rows := 0
	complete := e.tree.AscendRange(lo, hi, func(k []byte, v uint64) bool {
		rows++
		return fn(k, v)
	})
	done(rows)
	return complete
}

// Walk visits every key/value pair in ascending order (snapshots, LEN-style
// audits). fn returning false stops the walk.
func (e *Engine) Walk(fn func(key []byte, value uint64) bool) bool {
	done := e.beginScan("walk", nil)
	rows := 0
	complete := e.tree.Walk(func(k []byte, v uint64) bool {
		rows++
		return fn(k, v)
	})
	done(rows)
	return complete
}

// beginScan stamps the scan into the engine's instruments: ops_scan now,
// scan_rows at completion, and — when sample chose it — a lifecycle span
// whose trace ID is the start key's hash (zero-length keys hash to the
// same well-known ID). The returned func is called with the row count when
// the scan finishes.
func (e *Engine) beginScan(op string, startKey []byte) func(rows int) {
	e.ms.Inc(metrics.CtrOpsScan)
	t0, _, traced := e.sample()
	return func(rows int) {
		e.ms.Add(metrics.CtrScanRows, int64(rows))
		if traced || e.cfg.Journal != nil {
			// Worker and bucket -1: a scan executes on the caller, not on a
			// pipeline worker.
			now := time.Now().UnixNano()
			e.recordSpan(traced, op, hashKey(startKey), -1, -1, t0, t0, now,
				[]obs.Stage{{Name: "scan", StartUnixNano: t0, EndUnixNano: now}})
		}
	}
}
