package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/pctt"
	"repro/internal/store"
)

// sizes are the input sizes of the streams. The full sizes are what the
// benchmark measures; tests run the same code on smaller ones.
type sizes struct {
	zKeys, zOps int   // stream Z: keys generated, operations per pass
	cKeys       int   // stream C: preloaded keys
	warmup      int64 // stream Z: operations each producer runs before the timed section
	// cWarmup is stream C's warm-up per producer: together the producers
	// replace half the preloaded keys, so that the state a set-up ends in
	// (which heap_bytes_per_key measures) is a tree that inserts and
	// deletes have worked on, not one freshly loaded.
	cWarmup int64
}

var fullSizes = sizes{zKeys: 200_000, zOps: 500_000, cKeys: 500_000, warmup: 50_000, cWarmup: 250_000}

// config is one invocation's parameters.
type config struct {
	seed  int64
	sizes sizes
	// fault, when non-nil, wraps the store the producers (or the server)
	// use after the preload. Tests inject faults through it to show that
	// the oracle notices; the benchmark itself leaves it nil.
	fault func(store.Store) store.Store
}

func (c config) faulty(st store.Store) store.Store {
	if c.fault != nil {
		return c.fault(st)
	}
	return st
}

// closedLoopSamples is the room for the latency samples of one
// closed-loop producer: every latEvery-th operation at up to a million
// operations a second. (Sample buffers share the heap with the system
// under test, so they are no larger than they need to be.)
func closedLoopSamples(seconds float64) *samples {
	return newSamples(int(seconds * 1e6 / latEvery))
}

// section is what one timed section of a workload measured.
type section struct {
	attempted int64 // operations and checks whose outcome was verified, set-up included
	failed    int64 // of those, how many were wrong
	ops       int64 // operations completed in the timed section
	use       usage // consumed over the timed section
	procs     int   // GOMAXPROCS the timed section ran under
	open      bool  // open loop: the rate is the schedule's, not the program's
	width     int64 // of a slice, ns
	slices    []slice
	first     int // the first measured slice: after the open loop's ramp
	layers    layerCounts
}

// cpuPerOp is the processor time, user and system and load generator
// included, per operation of the section, in nanoseconds.
func (s *section) cpuPerOp() float64 { return per(float64(s.use.cpu), float64(s.ops)) }

// quiet returns the measured slices the end-to-end metrics are taken from.
func (s *section) quiet() []slice { return quietSlices(s.slices, s.first) }

// granted is the time a slice's processors were really there for: its
// width less the stolen time per processor. A slice that was mostly
// stolen measured too little to be scaled up by more than four.
func (s *section) granted(sl *slice) float64 {
	return max(float64(s.width)-float64(sl.stolen)/float64(runtime.NumCPU()), float64(s.width)/4)
}

// opsPerS is the section's throughput. A closed loop goes as fast as the
// program lets it: operations per granted second of each quiet slice, and
// of those the upper quartile, because whatever else disturbs a slice — a
// neighbour on the same core, a collection — only ever slows it. An open
// loop's rate is its schedule's, in wall time: operations over the quiet
// slices' length.
func (s *section) opsPerS() float64 {
	quiet := s.quiet()
	if s.open {
		var ops int64
		for i := range quiet {
			ops += quiet[i].ops
		}
		return per(float64(ops)*1e9, float64(len(quiet))*float64(s.width))
	}
	rates := make([]float64, len(quiet))
	for i := range quiet {
		rates[i] = float64(quiet[i].ops) * 1e9 / s.granted(&quiet[i])
	}
	return upperQuartile(rates)
}

// allocPerOp returns the bytes and the objects allocated per operation
// over the quiet slices.
func (s *section) allocPerOp() (bytes, objects float64) {
	var ops int64
	var alloc, mallocs uint64
	for _, sl := range s.quiet() {
		ops, alloc, mallocs = ops+sl.ops, alloc+sl.alloc, mallocs+sl.mallocs
	}
	return per(float64(alloc), float64(ops)), per(float64(mallocs), float64(ops))
}

// stop ends the timed section and returns what it consumed and what each
// of its slices measured; the caller fills in the operations it ran and
// checked.
func (sw *stopwatch) stop(parts sampled) *section {
	sec := &section{procs: runtime.GOMAXPROCS(0), width: sw.tls[0].width}
	sec.use = readUsage().since(sw.before)
	sec.slices = sw.slices(parts)
	return sec
}

// system is a workload set up and warmed: the store is open and
// preloaded, the server (if any) is serving, the first pass has run.
type system interface {
	// run executes the timed section, checks the final state and tears
	// the system down.
	run(seconds float64) (*section, error)
	// keys is the number of keys the store holds.
	keys() int
	// close tears down a system that is not going to run.
	close()
}

// workloadDef is one entry of the benchmark's workload table.
type workloadDef struct {
	name  string
	setup func(cfg config, tr *tracer) (system, error)
}

var workloads = []workloadDef{
	{"wire-point", func(cfg config, tr *tracer) (system, error) { return setupWire(cfg, tr, 0) }},
	{"engine-point", setupEngine},
	{"wire-rate-50k", func(cfg config, tr *tracer) (system, error) { return setupWire(cfg, tr, 50_000) }},
	{"engine-churn-scan", setupChurn},
}

// openStore opens the system under test: the batched store with two
// engine workers and engine defaults, as `dcart-kv -batch-workers 2` runs
// it. Only a traced run switches the engine's own latency histograms on.
func openStore(traced bool) *store.Batched {
	return store.Open(store.Config{Engine: pctt.Config{
		Workers: cores, RecordLatency: traced,
	}}).(*store.Batched)
}

// checkFinal compares the store's content with the model's: key count,
// ascending walk of exactly that many pairs, and content checksum. It
// returns the checks made and failed.
func checkFinal(st store.Store, wantKeys int, wantSum uint64) (attempted, failed int64) {
	var sum uint64
	var prev []byte
	walked, ordered := 0, true
	st.Walk(func(k []byte, v uint64) bool {
		if walked > 0 && string(prev) >= string(k) {
			ordered = false
		}
		prev = append(prev[:0], k...)
		sum += pairSum(k, v)
		walked++
		return true
	})
	for _, ok := range []bool{st.Len() == wantKeys, walked == wantKeys && ordered, sum == wantSum} {
		attempted++
		if !ok {
			failed++
		}
	}
	return attempted, failed
}

// heapPerKey tears a system down to measure the bytes its store keeps
// alive per key: the live heap with the store, minus the live heap once
// sys.close has dropped every reference to it. The harness's own state
// must outlive the measurement, or it would be counted as the store's.
func heapPerKey(sys system) float64 {
	keys := sys.keys()
	with := liveHeap()
	sys.close()
	without := liveHeap()
	runtime.KeepAlive(sys)
	if with < without {
		return 0
	}
	return per(float64(with-without), float64(keys))
}

// both runs f for every producer concurrently and joins the errors.
func both(f func(p int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, producers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[p] = f(p)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// finishZ ends a stream Z section: it checks the store against the model
// after the total operations each producer has run since the preload, and
// tears the system down.
func finishZ(sec *section, z *streamZ, st store.Store, total [producers]int64, sys system) {
	keys, sum := z.finalState(total)
	a, f := checkFinal(st, keys, sum)
	sec.attempted, sec.failed = sec.attempted+a, sec.failed+f
	sys.close()
}

// ---- engine-point ------------------------------------------------------

// engineSystem drives stream Z straight into the store API: two producer
// goroutines, each with a window of tokens. No server, no socket.
type engineSystem struct {
	z     *streamZ
	st    *store.Batched
	wins  [producers]*window
	probe *layerProbe
	// Operations verified while preloading, and how many of them failed.
	attempted, failed int64
}

func setupEngine(cfg config, tr *tracer) (system, error) {
	z, err := generateZ(cfg.sizes.zKeys, cfg.sizes.zOps, cfg.seed, false)
	if err != nil {
		return nil, err
	}
	s := &engineSystem{z: z, st: openStore(tr != nil)}
	s.probe = newLayerProbe(s.st, tr)
	s.attempted, s.failed = preloadZ(s.st, z)
	st := cfg.faulty(s.st)
	_ = both(func(p int) error {
		sc := &z.scripts[p]
		w := &window{st: s.probe.decorate(st, p, nil), tr: tr, producer: p}
		w.run(z, sc, &sc.steady, cfg.sizes.warmup, nil)
		s.wins[p] = w
		return nil
	})
	return s, nil
}

func (s *engineSystem) run(seconds float64) (*section, error) {
	for _, w := range s.wins {
		w.lat = closedLoopSamples(seconds)
	}
	var ran, total [producers]int64
	s.probe.begin()
	sw := startTimed(seconds)
	_ = both(func(p int) error {
		sc := &s.z.scripts[p]
		ran[p] = s.wins[p].run(s.z, sc, &sc.steady, 0, sw.tls[p])
		return nil
	})
	var parts sampled
	for _, w := range s.wins {
		parts[latency] = append(parts[latency], w.lat)
	}
	sec := sw.stop(parts)
	sec.attempted, sec.failed = s.attempted, s.failed
	sec.layers = s.probe.end(sec.use)
	for p, w := range s.wins {
		sec.ops += ran[p]
		sec.attempted += w.submitted
		sec.failed += w.failed
		total[p] = w.submitted
	}
	finishZ(sec, s.z, s.st, total, s)
	return sec, nil
}

func (s *engineSystem) keys() int { return s.st.Len() }

// close stops the store and drops every reference to it; the harness's
// own state stays, so that heapPerKey sees only the store go.
func (s *engineSystem) close() {
	if s.st == nil {
		return
	}
	s.st.Close()
	s.st, s.probe = nil, nil
	for _, w := range s.wins {
		w.st = nil
	}
}

// ---- wire-point and wire-rate ------------------------------------------

// wireSystem drives stream Z through the whole product: hex-keyed
// commands over two pipelined loopback TCP connections into the server.
// With rate 0 the clients run a closed loop; otherwise an open loop at
// rate requests per second in total.
type wireSystem struct {
	z       *streamZ
	st      *store.Batched
	server  *wireServer
	clients [producers]*wireClient
	rate    float64
	seed    int64
	probe   *layerProbe
	// Operations verified while preloading, and how many of them failed.
	attempted, failed int64
}

// wireOwner attributes a wire key (hex token plus terminator) to its
// producer by undoing the hex encoding inside ownerOf's hash.
func wireOwner(key []byte) int {
	h := uint32(2166136261)
	for i := 0; i+1 < len(key); i += 2 {
		h = (h ^ uint32(unhex(key[i])<<4|unhex(key[i+1]))) * 16777619
	}
	return int(h % producers)
}

func unhex(c byte) byte {
	if c >= 'a' {
		return c - 'a' + 10
	}
	return c - '0'
}

func setupWire(cfg config, tr *tracer, rate float64) (system, error) {
	z, err := generateZ(cfg.sizes.zKeys, cfg.sizes.zOps, cfg.seed, true)
	if err != nil {
		return nil, err
	}
	s := &wireSystem{z: z, st: openStore(tr != nil), rate: rate, seed: cfg.seed}
	s.attempted, s.failed = preloadZ(s.st, z)
	var wrap func(net.Conn) io.ReadWriteCloser
	if s.probe = newLayerProbe(s.st, tr); s.probe != nil {
		wrap = s.probe.wrapConn
	}
	if s.server, err = startWire(s.probe.decorate(cfg.faulty(s.st), 0, wireOwner), wrap); err != nil {
		s.st.Close()
		return nil, err
	}
	if s.probe != nil {
		s.probe.conns, s.probe.server = producers, s.server.srv.PipelineStats
	}
	for p := range s.clients {
		conn, err := s.server.dial()
		if err != nil {
			s.close()
			return nil, err
		}
		c := newWireClient(conn, p, &z.scripts[p])
		c.tr = tr
		s.clients[p] = c
	}
	// The warm-up runs closed-loop on every wire workload.
	err = both(func(p int) error {
		c := s.clients[p]
		_, err := c.closedLoop(&c.sc.steady, cfg.sizes.warmup, nil)
		return err
	})
	if err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

func (s *wireSystem) run(seconds float64) (*section, error) {
	for _, c := range s.clients {
		// A reply that never comes must end the run, not hang it.
		c.conn.SetReadDeadline(time.Now().Add(time.Duration(seconds*1e9) + 30*time.Second))
	}
	s.probe.begin()
	timed := s.closed
	if s.rate != 0 {
		timed = s.open
	}
	sec, err := timed(seconds)
	if err != nil {
		s.close()
		return nil, err
	}
	sec.attempted, sec.failed = s.attempted, s.failed
	sec.layers = s.probe.end(sec.use)
	var total [producers]int64
	for p, c := range s.clients {
		sec.attempted += c.replies
		sec.failed += c.failed
		total[p] = c.replies
	}
	finishZ(sec, s.z, s.st, total, s)
	return sec, nil
}

func (s *wireSystem) keys() int { return s.st.Len() }

// sampled collects the clients' sample buffers.
func (s *wireSystem) sampled() (parts sampled) {
	for _, c := range s.clients {
		parts[latency] = append(parts[latency], c.lat)
		parts[lateness] = append(parts[lateness], c.late)
	}
	return parts
}

// closed is wire-point's timed section.
func (s *wireSystem) closed(seconds float64) (*section, error) {
	var ran [producers]int64
	for _, c := range s.clients {
		c.lat = closedLoopSamples(seconds)
	}
	sw := startTimed(seconds)
	err := both(func(p int) (err error) {
		ran[p], err = s.clients[p].closedLoop(&s.clients[p].sc.steady, 0, sw.tls[p])
		return err
	})
	sec := sw.stop(s.sampled())
	for _, n := range ran {
		sec.ops += n
	}
	return sec, err
}

// rampShare is the leading share of an open-loop section that is sent
// but not measured.
const rampShare = 0.2

// latencyLimitNs is the open-loop latency limit on the 99th percentile.
const latencyLimitNs = 2e6

// open is wire-rate's timed section: requests on a seeded schedule of
// exponential gaps per connection, the first rampShare of it unmeasured.
func (s *wireSystem) open(seconds float64) (*section, error) {
	horizon := int64(seconds * 1e9)
	var due [producers][]int64
	for p := range due {
		due[p] = schedule(uint64(s.seed)*producers+uint64(p), s.rate/producers, horizon)
		s.clients[p].lat, s.clients[p].late = newSamples(len(due[p])), newSamples(len(due[p]))
	}
	// The pacer's thread sleeps in the kernel between sends and keeps its
	// processor while it does (see waitUntil), so it gets one of its own;
	// the server and the receivers keep the budget's two. The section
	// records the setting it ran under.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cores + 1))
	sw := startTimed(seconds)
	start := sw.before.wall
	measureFrom := start + int64(rampShare*float64(horizon))
	ran, err := openLoop(s.clients, start, due, measureFrom, sw.tls)
	sec := sw.stop(s.sampled())
	sec.open = true
	// Only requests due from measureFrom on were timed: the slices that
	// begin before it are not measured.
	sec.first = int((measureFrom - start + sec.width - 1) / sec.width)
	for _, n := range ran {
		sec.ops += n
	}
	return sec, err
}

// schedule returns due times in [0, horizon) with exponential gaps of
// mean 1/rate seconds, drawn from seed.
func schedule(seed uint64, rate float64, horizon int64) []int64 {
	rng := splitmix(seed)
	mean := 1e9 / rate
	due := make([]int64, 0, int(float64(horizon)/mean*1.1)+16)
	for t := 0.0; ; {
		u := (float64(rng.next()>>11) + 1) / (1 << 53) // (0, 1]
		t += -math.Log(u) * mean
		if int64(t) >= horizon {
			return due
		}
		due = append(due, int64(t))
	}
}

// close hangs up, stops the server and the store, and drops every
// reference to them; the clients' own state stays (see engineSystem.close).
func (s *wireSystem) close() {
	if s.st == nil {
		return
	}
	for _, c := range s.clients {
		if c != nil {
			c.conn.Close()
		}
	}
	if s.server != nil {
		s.server.close() // closes the store too
	} else {
		s.st.Close()
	}
	s.st, s.server, s.probe = nil, nil, nil
}
