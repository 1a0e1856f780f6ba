package main

import (
	"bytes"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"syscall"
	"time"
)

var epoch = time.Now()

// now returns nanoseconds on the process's monotonic clock.
func now() int64 { return int64(time.Since(epoch)) }

// usage is a snapshot of what the process has consumed so far.
type usage struct {
	wall    int64  // ns
	cpu     int64  // user+system ns, every thread of the process
	alloc   uint64 // bytes allocated, cumulative
	mallocs uint64 // objects allocated, cumulative
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return usage{
		wall:    now(),
		cpu:     ru.Utime.Nano() + ru.Stime.Nano(),
		alloc:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
	}
}

func (u usage) since(prev usage) usage {
	return usage{u.wall - prev.wall, u.cpu - prev.cpu, u.alloc - prev.alloc, u.mallocs - prev.mallocs}
}

// liveHeap returns the bytes still reachable after two collections (the
// second frees what sync.Pools held through the first).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// ---- what the machine withheld -------------------------------------------

// The benchmark runs on virtual machines whose hypervisor, for seconds or
// minutes at a time, gives a share of the processors to somebody else.
// The guest's kernel counts that time ("steal" in /proc/stat). A run that
// ignores it measures the neighbours: on the machine this was calibrated
// on, throughput over ten runs of unchanged code spread by 30% of its
// median, and by 4 to 9% once stolen time was taken out as below.

// stealSource is /proc/stat, opened once; nil where there is none, and
// then nothing is ever counted as stolen.
var stealSource, _ = os.Open("/proc/stat")

// userHz is the unit of /proc/stat's counters, fixed by the kernel's ABI.
const userHz = 100

// stolenNs returns the processor time the hypervisor has withheld from
// this machine so far, summed over its processors, in nanoseconds. It
// allocates nothing.
func stolenNs() int64 {
	if stealSource == nil {
		return 0
	}
	var buf [256]byte // the first line, "cpu  user nice system idle iowait irq softirq steal …", fits
	n, _ := stealSource.ReadAt(buf[:], 0)
	return parseSteal(buf[:n])
}

// parseSteal extracts the eighth counter of /proc/stat's first line.
func parseSteal(stat []byte) int64 {
	line, _, _ := bytes.Cut(stat, []byte("\n"))
	fields := bytes.Fields(line)
	if len(fields) < 9 || string(fields[0]) != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(string(fields[8]), 10, 64)
	if err != nil {
		return 0
	}
	return ticks * (1e9 / userHz)
}

// sliceNs is the width of the slices a timed section is cut into.
const sliceNs = 100e6

// counters are the cumulative readings taken at every slice boundary.
type counters struct {
	stolen      int64  // ns, all processors
	allocBytes  uint64 // heap bytes allocated
	allocations uint64 // heap objects allocated
}

// Together the two object counts are what runtime.MemStats calls Mallocs:
// the runtime packs tiny objects into shared blocks and counts them apart.
var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/tiny/allocs:objects"},
}

// readCounters reads without stopping the world (runtime.ReadMemStats
// would) and without allocating. Only the sampler and the goroutine that
// starts it call it, never at once.
func readCounters() counters {
	metrics.Read(allocSamples)
	return counters{stolenNs(), allocSamples[0].Value.Uint64(),
		allocSamples[1].Value.Uint64() + allocSamples[2].Value.Uint64()}
}

// slice is what one slice of a timed section measured.
type slice struct {
	ops     int64  // operations completed
	sampled bool   // the counters below were read at both of its ends
	stolen  int64  // ns the hypervisor withheld, all processors
	alloc   uint64 // bytes allocated
	mallocs uint64 // objects allocated
	// Duration samples that ended in it, by kind, sorted, ns.
	samples [sampleKinds][]int64
}

// The kinds of duration a section samples.
const (
	latency  = iota // of the workload's timed request
	lateness        // open loop: how late the generator sent a request
	scanTime        // engine-churn-scan: service time of a Store.Scan call
	sampleKinds
)

// sampled is a section's sample buffers: of each kind, one per producer
// that took any.
type sampled [sampleKinds][]*samples

// clockEvery is how many completions a producer lets pass between clock
// reads: often enough to place operations in the right time slice and to
// stop within microseconds of the deadline, rarely enough to cost nothing.
const clockEvery = 64

// timeline counts one producer's completed operations per slice of the
// timed section.
type timeline struct {
	start, width int64
	counts       []int64
	tick         int   // completions since the clock was last read
	clock        int64 // the clock as last read
}

func newTimeline(width int64, slices int) *timeline {
	return &timeline{width: width, counts: make([]int64, slices)}
}

func (t *timeline) end() int64 { return t.start + t.width*int64(len(t.counts)) }

// done records n completed operations, reading the clock once every
// clockEvery completions and crediting them to the slice it falls in.
// Completions after the last slice (the drain) are not credited.
func (t *timeline) done(n int) {
	t.tick += n
	if t.tick < clockEvery {
		return
	}
	t.clock = now()
	if s := (t.clock - t.start) / t.width; s >= 0 && s < int64(len(t.counts)) {
		t.counts[s] += int64(t.tick)
	}
	t.tick = 0
}

// expired reports whether the clock as last read has passed the last slice.
func (t *timeline) expired() bool { return t.clock >= t.end() }

// samples is a preallocated buffer of durations in nanoseconds, each with
// the time it ended at; recording never allocates, and samples beyond the
// capacity are dropped.
type samples struct{ ns, at []int64 }

func newSamples(capacity int) *samples {
	return &samples{ns: make([]int64, 0, capacity), at: make([]int64, 0, capacity)}
}

func (s *samples) add(ns, at int64) {
	if len(s.ns) == cap(s.ns) {
		return
	}
	s.ns, s.at = append(s.ns, ns), append(s.at, at)
}

// stopwatch brackets a timed section: what the process had consumed when
// it began, one timeline per producer over it, and a sampler that reads
// the counters at every slice boundary.
type stopwatch struct {
	before  usage
	tls     []*timeline
	bounds  []counters // bounds[i] was read at the start of slice i
	quit    chan struct{}
	sampled chan struct{}
}

func startTimed(seconds float64) *stopwatch {
	n := max(1, int(seconds*1e9/sliceNs))
	sw := &stopwatch{tls: make([]*timeline, producers), bounds: make([]counters, 1, n+1),
		quit: make(chan struct{}), sampled: make(chan struct{})}
	for p := range sw.tls {
		sw.tls[p] = newTimeline(int64(seconds*1e9)/int64(n), n)
	}
	// Everything is allocated; the clock starts.
	sw.before = readUsage()
	for _, t := range sw.tls {
		t.start, t.clock = sw.before.wall, sw.before.wall
	}
	sw.bounds[0] = readCounters()
	go sw.sample(n)
	return sw
}

// sample reads the counters at the end of every slice, until told to
// quit; a slice that has ended by then still gets its reading.
func (sw *stopwatch) sample(n int) {
	defer close(sw.sampled)
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for i := 1; i <= n; i++ {
		end := sw.tls[0].start + int64(i)*sw.tls[0].width
		timer.Reset(time.Duration(end - now()))
		select {
		case <-sw.quit:
			if now() < end {
				return
			}
		case <-timer.C:
		}
		sw.bounds = append(sw.bounds, readCounters())
	}
}

// slices ends the section and returns what each of its slices measured:
// the producers' operations, the sampler's counters, and the duration
// samples by the slice they ended in. A slice whose end the sampler did
// not see counts as not sampled.
func (sw *stopwatch) slices(parts sampled) []slice {
	close(sw.quit)
	<-sw.sampled
	tl := sw.tls[0]
	out := make([]slice, len(tl.counts))
	for i := range out {
		s := &out[i]
		for _, t := range sw.tls {
			s.ops += t.counts[i]
		}
		if i+1 < len(sw.bounds) {
			a, b := sw.bounds[i], sw.bounds[i+1]
			s.sampled = true
			s.stolen, s.alloc, s.mallocs = b.stolen-a.stolen, b.allocBytes-a.allocBytes, b.allocations-a.allocations
		}
	}
	for kind, buffers := range parts {
		for _, p := range buffers {
			for i, ns := range p.ns {
				if s := (p.at[i] - tl.start) / tl.width; s >= 0 && s < int64(len(out)) {
					out[s].samples[kind] = append(out[s].samples[kind], ns)
				}
			}
		}
		for i := range out {
			sortInt64s(out[i].samples[kind])
		}
	}
	return out
}

func sortInt64s(v []int64) { sort.Slice(v, func(i, j int) bool { return v[i] < v[j] }) }

// quietSlices returns, of the slices from index first on, the half from
// which the hypervisor withheld the least: the slices in which the program
// most nearly had the machine it was given. On a machine that reports no
// stolen time that is all of them.
func quietSlices(all []slice, first int) []slice {
	var stolen []float64
	for _, s := range all[first:] {
		if s.sampled {
			stolen = append(stolen, float64(s.stolen))
		}
	}
	limit := int64(median(stolen))
	var quiet []slice
	for _, s := range all[first:] {
		if s.sampled && s.stolen <= limit {
			quiet = append(quiet, s)
		}
	}
	return quiet
}

// minSliceSamples is the least a slice must hold for its percentiles to
// have a say: a hundredth of it must still be a sample.
const minSliceSamples = 100

// quantileOver returns the median over the slices of each slice's
// q-quantile of one kind of sample — so one stall moves one slice and not
// the result — or the q-quantile of all their samples together when no
// slice holds enough.
func quantileOver(slices []slice, q float64, kind int) float64 {
	var per []float64
	var all []int64
	for i := range slices {
		v := slices[i].samples[kind]
		all = append(all, v...)
		if len(v) >= minSliceSamples {
			per = append(per, quantile(v, q))
		}
	}
	if len(per) == 0 {
		sortInt64s(all)
		return quantile(all, q)
	}
	return median(per)
}

// quantile returns the q-quantile (nearest rank) of sorted values, 0 when
// there are none.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

// median returns the median of values (not necessarily sorted; the slice
// is reordered), 0 when there are none.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sort.Float64s(values)
	n := len(values)
	if n%2 == 1 {
		return values[n/2]
	}
	return (values[n/2-1] + values[n/2]) / 2
}

// upperQuartile returns the value three quarters of the way up values
// (nearest rank; the slice is reordered), 0 when there are none.
func upperQuartile(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sort.Float64s(values)
	return values[min(len(values)-1, 3*len(values)/4)]
}
