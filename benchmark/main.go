// Command benchmark is the repository's benchmark: one workload per
// invocation, generated from a seed, run against the in-process product
// under a fixed core budget, with every reply checked against a model.
// README.md in this directory describes the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"text/tabwriter"
	"time"
)

// metricDef names a metric and its unit. The end-to-end list and the
// per-layer list are the benchmark's vocabulary; BENCHMARK.json at the
// root of the repository repeats them with their bounds.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"alloc_bytes_per_op", "B"},
	{"allocs_per_op", "count"},
	{"heap_bytes_per_key", "B"},
	{"lat_p50_us", "us"},
}

var perLayerMetrics = []metricDef{
	{"harness.null_ns_per_op", "ns"},
	{"olc.ns_per_op", "ns"},
	{"pctt.run_ns_per_op", "ns"},
	{"store.sync_ns_per_op", "ns"},
	{"store.async_ns_per_op", "ns"},
	{"store.direct_async_ns_per_op", "ns"},
	{"kvserver.null_store_ns_per_op", "ns"},
	{"kvserver.pipe_ns_per_op", "ns"},
	{"socket.tcp_ns_per_op", "ns"},
	{"socket.read_calls_per_op", "count"},
	{"socket.write_calls_per_op", "count"},
	{"socket.bytes_per_op", "B"},
	{"socket.read_wait_ns_per_op", "ns"},
	{"socket.write_ns_per_op", "ns"},
	{"kvserver.flushes_per_op", "count"},
	{"kvserver.depth_achieved", "count"},
	{"kvserver.reader_ns_per_op", "ns"},
	{"store.submit_ns_per_op", "ns"},
	{"store.wait_ns_per_op", "ns"},
	{"store.scan_ns_per_row", "ns"},
	{"pctt.queue_wait_p50_us", "us"},
	{"pctt.queue_wait_p99_us", "us"},
	{"pctt.exec_p50_us", "us"},
	{"pctt.exec_p99_us", "us"},
	{"pctt.ops_per_batch", "count"},
	{"pctt.coalesced_per_op", "count"},
	{"pctt.shortcut_hit_rate", "ratio"},
	{"pctt.hotset_hit_rate", "ratio"},
	{"pctt.deferrals_per_kop", "count"},
	{"pctt.steals_per_kop", "count"},
	{"pctt.handoffs_per_kop", "count"},
	{"pctt.bypass_share", "ratio"},
	{"pctt.worker_imbalance", "ratio"},
	{"olc.node_accesses_per_op", "count"},
	{"olc.key_matches_per_op", "count"},
	{"olc.lock_contention_per_kop", "count"},
	{"olc.restarts_per_kop", "count"},
	{"olc.shared_descents_per_kop", "count"},
	{"olc.batch_fallback_rate", "ratio"},
	{"olc.scan_rows_per_scan", "count"},
	{"runtime.cpu_ns_per_op", "ns"},
	{"runtime.gc_cycles_per_s", "1/s"},
	{"runtime.gc_pause_us_per_s", "us/s"},
	{"runtime.sched_lat_p99_us", "us"},
	{"runtime.heap_live_mb", "MB"},
	{"client.lat_p99_us", "us"},
	{"client.scan_p50_us", "us"},
	{"client.scan_p99_us", "us"},
	{"harness.gen_late_p99_us", "us"},
	{"harness.null_alloc_bytes_per_op", "B"},
	{"harness.trace_overhead_pct", "%"},
}

// measured is one metric of a result line.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// record is a result with the invocation that produced it: one line of a
// runs file, which is what -compare reads.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	// GOMAXPROCS is what the timed section ran under.
	GOMAXPROCS int `json:"gomaxprocs"`
	// Notes say what the metrics do not: a latency limit missed, a load
	// generator that ran late.
	Notes []string `json:"notes,omitempty"`
	result
}

// setupRepeats is how many times an untraced run sets the workload up;
// setup_s is the median.
const setupRepeats = 3

// Shares of a traced run's seconds: an untraced section for reference,
// the traced section, and the ladder.
const (
	traceReferenceShare = 0.15
	traceSectionShare   = 0.25
	traceLadderShare    = 0.60
)

// watchdog is how long an invocation may take before it gives up; a lost
// completion would otherwise hang the run for ever.
const watchdog = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see -list)")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the timed section")
	trace := fs.Int("trace", 0, "1 = run with the layer decorators and the ladder on and print the per-layer metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1: write the spans to this file as NDJSON")
	appendTo := fs.String("append", "", "append the result, with its invocation, to this runs file")
	list := fs.Bool("list", false, "list the workloads and exit")
	compare := fs.Bool("compare", false, "compare two runs files: -compare [-spec BENCHMARK.json] a.json b.json")
	spec := fs.String("spec", "BENCHMARK.json", "with -compare: the file the bounds are read from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, w := range workloads {
			fmt.Fprintln(stdout, w.name)
		}
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two runs files")
			return 2
		}
		return compareFiles(*spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	var w *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "benchmark: need -workload <name> (one of -list), -seconds > 0 and no other arguments\n")
		return 2
	}
	// The core budget, fixed and recorded: two processors for server and
	// load generator together, the runtime's stock collector setting. (The
	// open loop raises GOMAXPROCS by one for its timed section, for the
	// pacer's thread to sleep on; it needs no third processor to sleep,
	// and every report and record says what its section ran under.)
	if runtime.NumCPU() < cores {
		fmt.Fprintf(stderr, "benchmark: needs %d processors, this machine has %d\n", cores, runtime.NumCPU())
		return 1
	}
	runtime.GOMAXPROCS(cores)
	debug.SetGCPercent(100)
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(stderr, "benchmark: no result after %v, giving up\n", watchdog)
		os.Exit(3)
	})

	cfg := config{seed: *seed, sizes: fullSizes}
	var res *result
	var sec *section
	var err error
	if *trace == 0 {
		res, sec, err = runUntraced(w, cfg, *seconds, stdout)
	} else {
		res, sec, err = runTraced(w, cfg, *seconds, *traceOut, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	rec := record{w.name, *seed, *seconds, *trace, sec.procs, sec.notes(), *res}
	if *appendTo != "" {
		if err := appendRecord(*appendTo, rec); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runUntraced sets the workload up setupRepeats times, runs the last
// set-up, and reports the end-to-end metrics. The set-ups that do not run
// are torn down to measure what their stores keep alive: every set-up
// does the same operations, so unlike the timed section's end that is a
// state which does not depend on how fast the machine was.
func runUntraced(w *workloadDef, cfg config, seconds float64, stdout io.Writer) (*result, *section, error) {
	var setups, heaps []float64
	var sys system
	for i := 0; i < setupRepeats; i++ {
		if sys != nil {
			heaps = append(heaps, heapPerKey(sys))
		}
		begin, stolen := now(), stolenNs()
		var err error
		if sys, err = w.setup(cfg, nil); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		// As in the timed section, time the hypervisor withheld is not
		// the program's.
		granted := float64(now()-begin) - float64(stolenNs()-stolen)/float64(runtime.NumCPU())
		setups = append(setups, granted/1e9)
	}
	sec, err := sys.run(seconds)
	if err != nil {
		return nil, nil, err
	}
	m := endToEnd(sec)
	m["setup_s"] = median(setups)
	m["heap_bytes_per_key"] = median(heaps)
	printSection(stdout, w.name, cfg, sec)
	return newResult(sec.attempted, sec.failed, endToEndMetrics, m, stdout), sec, nil
}

// endToEnd turns a section into the end-to-end metrics that are taken
// from its quiet slices.
func endToEnd(sec *section) map[string]float64 {
	bytes, objects := sec.allocPerOp()
	return map[string]float64{
		"ops_per_s":          sec.opsPerS(),
		"alloc_bytes_per_op": bytes,
		"allocs_per_op":      objects,
		"lat_p50_us":         quantileOver(sec.quiet(), 0.50, latency) / 1e3,
	}
}

// runTraced runs the workload untraced for reference, then with the
// decorators on, then the ladder, and reports the per-layer metrics.
func runTraced(w *workloadDef, cfg config, seconds float64, traceOut string, stdout, stderr io.Writer) (*result, *section, error) {
	measure := func(tr *tracer, share float64) (*section, error) {
		sys, err := w.setup(cfg, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		return sys.run(seconds * share)
	}
	ref, err := measure(nil, traceReferenceShare)
	if err != nil {
		return nil, nil, err
	}
	tr := &tracer{}
	sec, err := measure(tr, traceSectionShare)
	if err != nil {
		return nil, nil, err
	}
	m := make(map[string]float64)
	sec.layers.metrics(sec.ops, m)
	m["client.lat_p99_us"] = quantileOver(sec.quiet(), 0.99, latency) / 1e3
	m["client.scan_p50_us"] = quantileOver(sec.quiet(), 0.50, scanTime) / 1e3
	m["client.scan_p99_us"] = quantileOver(sec.quiet(), 0.99, scanTime) / 1e3
	m["harness.gen_late_p99_us"] = quantileOver(sec.quiet(), 0.99, lateness) / 1e3
	// What tracing costs: processor time per operation, traced over
	// untraced (throughput would not show it in the open loop).
	m["harness.trace_overhead_pct"] = 100 * (per(sec.cpuPerOp(), ref.cpuPerOp()) - 1)
	attempted, failed, err := runLadder(cfg, seconds*traceLadderShare, m, stderr)
	if err != nil {
		return nil, nil, err
	}
	if traceOut != "" {
		if err := tr.writeFile(traceOut); err != nil {
			return nil, nil, fmt.Errorf("write spans: %w", err)
		}
	}
	printSection(stdout, w.name+" (traced)", cfg, sec)
	printSelfTimes(stdout, tr)
	return newResult(ref.attempted+sec.attempted+attempted, ref.failed+sec.failed+failed,
		perLayerMetrics, m, stdout), sec, nil
}

// newResult prints the metrics as a table and packs them into a result.
func newResult(attempted, failed int64, defs []metricDef, values map[string]float64, stdout io.Writer) *result {
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]measured, len(defs))}
	tw := tabwriter.NewWriter(stdout, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit")
	for _, d := range defs {
		res.Metrics[d.name] = measured{values[d.name], d.unit}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\n", d.name, values[d.name], d.unit)
	}
	fmt.Fprintf(tw, "fail_ratio\t%.6g\t(%d of %d)\n", per(float64(failed), float64(attempted)), failed, attempted)
	tw.Flush()
	return res
}

// lateLimitNs is how late the open loop's generator may run at its 99th
// percentile before the run says so: half the latency limit.
const lateLimitNs = latencyLimitNs / 2

// notes returns what a reader of the metrics must know besides: an open
// loop that missed its latency limit, or whose generator ran late, so that
// its latencies are partly the harness's.
func (s *section) notes() []string {
	if !s.open {
		return nil
	}
	var notes []string
	quiet := s.quiet()
	if p99 := quantileOver(quiet, 0.99, latency); p99 > latencyLimitNs {
		notes = append(notes, fmt.Sprintf("p99 latency %.0f us misses the %.0f us limit", p99/1e3, latencyLimitNs/1e3))
	}
	if late := quantileOver(quiet, 0.99, lateness); late > lateLimitNs {
		notes = append(notes, fmt.Sprintf("generator lateness p99 %.0f us is above %.0f us", late/1e3, lateLimitNs/1e3))
	}
	return notes
}

// printSection prints what a section measured beyond the gated metrics:
// the budget it ran under, the raw figures of the whole section, how much
// of it the hypervisor withheld, the tail.
func printSection(out io.Writer, name string, cfg config, sec *section) {
	fmt.Fprintf(out, "workload %s  seed %d  GOMAXPROCS %d  GOGC 100  producers %d  window %d  timed %.2f s  ops %d\n",
		name, cfg.seed, sec.procs, producers, windowDepth, float64(sec.use.wall)/1e9, sec.ops)
	measured, quiet := sec.slices[sec.first:], sec.quiet()
	var stolen, quietStolen int64
	rates := make([]float64, len(measured))
	for i, sl := range measured {
		stolen += sl.stolen
		rates[i] = float64(sl.ops) * 1e9 / float64(sec.width)
	}
	for _, sl := range quiet {
		quietStolen += sl.stolen
	}
	share := func(stolen int64, slices int) float64 {
		return 100 * per(float64(stolen), float64(slices)*float64(sec.width)*float64(runtime.NumCPU()))
	}
	fmt.Fprintf(out, "slices of %.0f ms: %d measured, %.1f%% of their processor time stolen; %d quiet, %.1f%% stolen\n",
		float64(sec.width)/1e6, len(measured), share(stolen, len(measured)), len(quiet), share(quietStolen, len(quiet)))
	mid := median(rates) // sorts
	fmt.Fprintf(out, "raw ops/s over the measured slices: min %.0f  median %.0f  max %.0f  (whole section %.0f)\n",
		rates[0], mid, rates[len(rates)-1], per(float64(sec.ops)*1e9, float64(sec.use.wall)))
	fmt.Fprintf(out, "raw allocation over the whole section: %.1f B/op  %.3f objects/op\n",
		per(float64(sec.use.alloc), float64(sec.ops)), per(float64(sec.use.mallocs), float64(sec.ops)))
	fmt.Fprintf(out, "processor time: %.0f ns/op, load generator included (%.2f of %d processors busy)\n",
		sec.cpuPerOp(), per(float64(sec.use.cpu), float64(sec.use.wall)), cores)
	var all []int64
	for i := range measured {
		all = append(all, measured[i].samples[latency]...)
	}
	sortInt64s(all)
	fmt.Fprintf(out, "latency, median over the quiet slices: p50 %.1f us  p99 %.1f us;  over the measured slices together: %d samples  p50 %.1f us  p99 %.1f us  p99.9 %.1f us  max %.1f us\n",
		quantileOver(quiet, 0.5, latency)/1e3, quantileOver(quiet, 0.99, latency)/1e3,
		len(all), quantile(all, 0.5)/1e3, quantile(all, 0.99)/1e3, quantile(all, 0.999)/1e3, quantile(all, 1)/1e3)
	if scans := quantileOver(quiet, 0.5, scanTime); scans > 0 {
		fmt.Fprintf(out, "scans, median over the quiet slices: p50 %.1f us  p99 %.1f us\n",
			scans/1e3, quantileOver(quiet, 0.99, scanTime)/1e3)
	}
	if sec.open {
		fmt.Fprintf(out, "open loop: generator lateness over the quiet slices p50 %.1f us  p99 %.1f us;  latency limit: p99 <= %.0f us\n",
			quantileOver(quiet, 0.5, lateness)/1e3, quantileOver(quiet, 0.99, lateness)/1e3, latencyLimitNs/1e3)
		for _, note := range sec.notes() {
			fmt.Fprintf(out, "NOTE: %s\n", note)
		}
	}
}

// printSelfTimes prints each span name's mean self time.
func printSelfTimes(out io.Writer, tr *tracer) {
	self := selfTimes(tr.spans)
	fmt.Fprintf(out, "spans: %d kept (every %dth operation); mean self time:", len(tr.spans), spanEvery)
	for _, name := range []string{spanRequest, spanStoreOp, spanSubmit, spanWait, spanScan} {
		if v, ok := self[name]; ok {
			fmt.Fprintf(out, "  %s %.0f ns", name, v)
		}
	}
	fmt.Fprintln(out)
}
