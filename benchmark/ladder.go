package main

import (
	"fmt"
	"io"
	"net"
	"runtime"

	"repro/internal/kvserver"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/olc"
	"repro/internal/pctt"
	"repro/internal/store"
	"repro/internal/workload"
)

// The layer ladder runs stream Z, in its steady state, against each layer
// of the product in turn, from nothing at all up to the whole wire path.
// Adjacent rungs differ by one layer, so the difference of their ns/op is
// what that layer costs on this stream.

// nullStore is the bottom of the ladder: a store that holds nothing and
// does nothing. Every get misses and every put is an insert, so the
// replies are still known, and what a run over it costs and allocates
// belongs to the harness (and, on the wire, to the protocol) alone.
type nullStore struct{}

type nullPending struct{}

func (nullPending) Wait() (uint64, bool) { return 0, false }

func (nullStore) Get([]byte) (uint64, bool)                     { return 0, false }
func (nullStore) Put([]byte, uint64) bool                       { return false }
func (nullStore) Delete([]byte) bool                            { return false }
func (nullStore) GetAsync([]byte) store.Pending                 { return nullPending{} }
func (nullStore) PutAsync([]byte, uint64) store.Pending         { return nullPending{} }
func (nullStore) DeleteAsync([]byte) store.Pending              { return nullPending{} }
func (nullStore) Scan([]byte, int, store.Visitor) bool          { return false }
func (nullStore) Range([]byte, []byte, int, store.Visitor) bool { return false }
func (nullStore) Len() int                                      { return 0 }
func (nullStore) Walk(store.Visitor) bool                       { return true }
func (nullStore) RegisterObs(*obs.Registry)                     {}
func (nullStore) Close() error                                  { return nil }

// rungResult is one rung's outcome.
type rungResult struct {
	nsPerOp           float64
	allocPerOp        float64
	attempted, failed int64
}

// timeRung runs warm and then, on the clock, body for every producer over
// its own timeline, and turns the section into ns/op the way a workload's
// throughput is taken. body returns its verified and failed counts since
// the rung began.
func timeRung(seconds float64, warm func(p int) error,
	body func(p int, tl *timeline) (attempted, failed int64, err error)) (rungResult, error) {
	var r rungResult
	if err := both(warm); err != nil {
		return r, err
	}
	var attempted, failed [producers]int64
	sw := startTimed(seconds)
	err := both(func(p int) (err error) {
		attempted[p], failed[p], err = body(p, sw.tls[p])
		return err
	})
	sec := sw.stop(sampled{})
	for p := range attempted {
		r.attempted, r.failed = r.attempted+attempted[p], r.failed+failed[p]
	}
	r.nsPerOp = per(1e9, sec.opsPerS())
	r.allocPerOp = per(float64(sec.use.alloc), float64(r.attempted))
	return r, err
}

// loadFinal puts stream Z's final state — every key, with the value a
// whole pass leaves — so that a rung starts in the steady state.
func loadFinal(z *streamZ, put func(key []byte, val uint64) bool) {
	for i, k := range z.keys {
		put(k, z.final[i])
	}
}

// rung is what every rung is given: the stream, how long to warm up (as
// the workloads do) and how long to measure.
type rung struct {
	z       *streamZ
	warmup  int64
	seconds float64
}

// window runs the scripts through token windows over st.
func (r rung) window(st store.Store, exp func(sc *script) *expect) (rungResult, error) {
	var wins [producers]window // made before the clock and the allocation count start
	var exps [producers]*expect
	for p := range wins {
		wins[p].st, exps[p] = st, exp(&r.z.scripts[p])
	}
	return timeRung(r.seconds, func(p int) error {
		wins[p].run(r.z, &r.z.scripts[p], exps[p], r.warmup, nil)
		return nil
	}, func(p int, tl *timeline) (int64, int64, error) {
		wins[p].run(r.z, &r.z.scripts[p], exps[p], 0, tl)
		return wins[p].submitted, wins[p].failed, nil
	})
}

// sync runs the scripts through blocking calls, one in flight per
// producer.
func (r rung) sync(get func([]byte) (uint64, bool), put func([]byte, uint64) bool) (rungResult, error) {
	var at, failed [producers]int64 // operations run and failed so far
	step := func(p int) {
		sc := &r.z.scripts[p]
		i := int(at[p] % int64(sc.len()))
		want := sc.steady.at(i)
		key := r.z.keys[sc.key[i]]
		if sc.kind[i] == opPut {
			if put(key, sc.val[i]) != want.found {
				failed[p]++
			}
		} else if v, ok := get(key); ok != want.found || v != want.val {
			failed[p]++
		}
		at[p]++
	}
	return timeRung(r.seconds, func(p int) error {
		for at[p] < r.warmup {
			step(p)
		}
		return nil
	}, func(p int, tl *timeline) (int64, int64, error) {
		for !tl.expired() {
			step(p)
			tl.done(1)
		}
		return at[p], failed[p], nil
	})
}

// steadyOf and missesOf pick the replies a rung expects: the model's, or
// on the null store a miss for everything.
func steadyOf(sc *script) *expect { return &sc.steady }

func missesOf(sc *script) *expect {
	return &expect{make([]uint64, sc.len()), make([]bool, sc.len())}
}

// runRun is the pctt.run rung: the engine's bulk path, one caller, whole
// passes until the time is up. It checks the final state only.
func (r rung) run() (rungResult, error) {
	z, seconds := r.z, r.seconds
	e := pctt.New(pctt.Config{Workers: cores})
	defer e.Close()
	loadFinal(z, e.Tree().Put)
	var ops []workload.Op
	for p := range z.scripts {
		sc := &z.scripts[p]
		for i, k := range sc.key {
			kind := workload.Read
			if sc.kind[i] == opPut {
				kind = workload.Write
			}
			ops = append(ops, workload.Op{Kind: kind, Key: z.keys[k], Value: sc.val[i]})
		}
	}
	// Whole passes, each timed like a slice of a workload: operations per
	// second the processors were really there for.
	var res rungResult
	var passes []float64
	for end := now() + int64(seconds*1e9); now() < end || len(passes) < 2; {
		begin, stolen := now(), stolenNs()
		e.Run(ops)
		granted := float64(now()-begin) - float64(stolenNs()-stolen)/float64(runtime.NumCPU())
		passes = append(passes, float64(len(ops))*1e9/granted)
	}
	res.nsPerOp = per(1e9, upperQuartile(passes[1:])) // the first pass is the warm-up
	keys, sum := z.finalState([producers]int64{})
	res.attempted, res.failed = checkFinal(store.WrapEngine(e), keys, sum)
	return res, nil
}

// wire runs the wire scripts closed-loop against a server reached
// through dial.
func (r rung) wire(dial func() (net.Conn, error), exp func(sc *script) *expect) (rungResult, error) {
	var clients [producers]*wireClient
	var exps [producers]*expect
	for p := range clients {
		conn, err := dial()
		if err != nil {
			return rungResult{}, err
		}
		defer conn.Close()
		clients[p] = newWireClient(conn, p, &r.z.scripts[p])
		exps[p] = exp(&r.z.scripts[p])
	}
	return timeRung(r.seconds, func(p int) error {
		_, err := clients[p].closedLoop(exps[p], r.warmup, nil)
		return err
	}, func(p int, tl *timeline) (int64, int64, error) {
		c := clients[p]
		_, err := c.closedLoop(exps[p], 0, tl)
		return c.replies, c.failed, err
	})
}

// tcp is wire over a loopback TCP listener.
func (r rung) tcp(st store.Store, exp func(sc *script) *expect) (rungResult, error) {
	server, err := startWire(st, nil)
	if err != nil {
		return rungResult{}, err
	}
	defer server.close()
	return r.wire(server.dial, exp)
}

// pipe is wire over in-process net.Pipe connections: the server and the
// protocol without the kernel's sockets.
func (r rung) pipe(st store.Store) (rungResult, error) {
	srv := kvserver.NewStore(st)
	srv.SetPipeline(kvserver.DefaultPipelineDepth, kvserver.DefaultFlushEvery)
	defer srv.Close()
	served := make(chan struct{}, producers)
	res, err := r.wire(func() (net.Conn, error) {
		client, server := net.Pipe()
		go func() {
			srv.Serve(server)
			served <- struct{}{}
		}()
		return client, nil
	}, steadyOf)
	// wire has closed the client ends; wait for the handlers.
	for p := 0; p < producers; p++ {
		<-served
	}
	return res, err
}

// ladderRungs lists the rungs bottom-up; each entry names its metric.
var ladderRungs = []string{
	"harness.null_ns_per_op",
	"olc.ns_per_op",
	"pctt.run_ns_per_op",
	"store.sync_ns_per_op",
	"store.async_ns_per_op",
	"store.direct_async_ns_per_op",
	"kvserver.null_store_ns_per_op",
	"kvserver.pipe_ns_per_op",
	"socket.tcp_ns_per_op",
}

// runLadder measures every rung for an equal share of seconds and adds
// the rung metrics, and harness.null_alloc_bytes_per_op, to out.
func runLadder(cfg config, seconds float64, out map[string]float64, log io.Writer) (attempted, failed int64, err error) {
	raw, err := generateZ(cfg.sizes.zKeys, cfg.sizes.zOps, cfg.seed, false)
	if err != nil {
		return 0, 0, err
	}
	wire, err := generateZ(cfg.sizes.zKeys, cfg.sizes.zOps, cfg.seed, true)
	if err != nil {
		return 0, 0, err
	}
	batched := func(z *streamZ) *store.Batched {
		st := openStore(false)
		loadFinal(z, st.Engine().Tree().Put)
		return st
	}
	share := seconds / float64(len(ladderRungs))
	onRaw := rung{raw, cfg.sizes.warmup, share}
	onWire := rung{wire, cfg.sizes.warmup, share}
	rungs := []func() (rungResult, error){
		func() (rungResult, error) { return onRaw.window(nullStore{}, missesOf) },
		func() (rungResult, error) {
			tree := olc.New(metrics.NewSet())
			loadFinal(raw, tree.Put)
			return onRaw.sync(tree.Get, tree.Put)
		},
		onRaw.run,
		func() (rungResult, error) {
			st := batched(raw)
			defer st.Close()
			return onRaw.sync(st.Get, st.Put)
		},
		func() (rungResult, error) {
			st := batched(raw)
			defer st.Close()
			return onRaw.window(st, steadyOf)
		},
		func() (rungResult, error) {
			st := store.NewDirect()
			defer st.Close()
			loadFinal(raw, st.Put)
			return onRaw.window(st, steadyOf)
		},
		func() (rungResult, error) { return onWire.tcp(nullStore{}, missesOf) },
		func() (rungResult, error) { return onWire.pipe(batched(wire)) },
		func() (rungResult, error) { return onWire.tcp(batched(wire), steadyOf) },
	}
	for i, rung := range rungs {
		r, err := rung()
		if err != nil {
			return attempted, failed, fmt.Errorf("ladder rung %s: %w", ladderRungs[i], err)
		}
		out[ladderRungs[i]] = r.nsPerOp
		attempted, failed = attempted+r.attempted, failed+r.failed
		if i == 0 {
			// The harness over the null store must not allocate: then
			// every byte a workload allocates is the program's.
			out["harness.null_alloc_bytes_per_op"] = r.allocPerOp
			attempted++
			if r.allocPerOp >= 1 {
				failed++
				fmt.Fprintf(log, "ladder: the harness allocates %.2f B/op over the null store\n", r.allocPerOp)
			}
		}
	}
	return attempted, failed, nil
}
