// Command dcart-kv is a small TCP key-value server backed by the
// thread-safe adaptive radix tree — the kind of component the paper's
// introduction places ART inside ("large-scale database systems and
// key-value stores"). One goroutine per connection exercises the
// lock-coupling concurrency substrate under real network load.
//
// Protocol (text, one command per line):
//
//	PUT <key> <uint64>     -> OK | OK replaced
//	GET <key>              -> VALUE <uint64> | NOT_FOUND
//	DEL <key>              -> OK | NOT_FOUND
//	SCAN <prefix> <limit>  -> KEY <key> <value> lines, then END
//	                          (END TRUNCATED when the server's 10k response
//	                          cap clipped a larger result)
//	LEN                    -> LEN <n>
//	STATS                  -> one line: the observability snapshot
//	QUIT                   -> closes the connection
//
// Keys are printable tokens (no spaces); the server appends the 0x00
// terminator internally so prefix relationships are safe.
//
// Usage:
//
//	dcart-kv [-addr :7070] [-snapshot file] [-shards n] [-batch-workers n]
//	         [-batch-queue-depth 4096] [-batch-max-inflight 16384]
//	         [-batch-no-steal]
//	         [-pipeline-depth 64] [-flush-every 32]
//	         [-diag-addr 127.0.0.1:7071] [-trace-sample 1024]
//	         [-obs-window 1s] [-slow-op 10ms] [-slow-op-log]
//	         [-flightrec-dir dir] [-drain-timeout 10s]
//
// With -snapshot, the store loads the file at startup (if present) and
// writes it back on shutdown. With -batch-workers > 0, point operations
// flow through the parallel Combine-Traverse-Trigger engine
// (internal/pctt), which coalesces concurrent requests per key prefix
// before touching the tree; the remaining -batch-* flags tune its
// latency/throughput trade-off (backlog bounds, work stealing — see
// internal/pctt.Config).
//
// With -shards > 1, the key space is partitioned across that many
// independent sub-stores by the top key bytes (internal/store.Sharded,
// the scale-out shape of the paper's Fig 6): point operations route to
// the owning shard, SCAN/RANGE scatter to every shard and merge back in
// global key order, snapshots become one file per shard, and /metrics
// serves every series per shard under a shard="i" label. -shards composes
// with -batch-workers (each shard gets its own engine).
//
// Each connection runs the pipelined wire by default: commands are read
// and submitted continuously with up to -pipeline-depth responses in
// flight, responses complete in protocol order, and flushes coalesce to
// one per -flush-every responses (plus one whenever the connection goes
// idle, so nothing waits). SCAN/RANGE/LEN/STATS drain the window before
// executing, preserving read-your-writes. -pipeline-depth 1 restores the
// lockstep request/response loop.
//
// With -diag-addr, a diagnostics HTTP server exposes /metrics (Prometheus
// text format), /statsz (the STATS snapshot as JSON), /debug/traces (the
// sampled op-lifecycle span ring; ?id=<key hash> composes the wire and
// engine spans of one traced op into a stage waterfall),
// /debug/timeseries (rolling per--obs-window counter rates and latency
// quantiles as JSON, or a TOP-style text view with ?view=top),
// /debug/events (the slow-op journal as JSON lines once -slow-op is set),
// /debug/pprof/*, and /healthz; latency recording and 1/-trace-sample
// lifecycle tracing are enabled on the batched engine automatically, and
// every connection stamps wire-stage spans (parse, submit, window,
// execute, flush) for traced or journaled operations. When the rolling
// collector is on, /healthz upgrades from a static "ok" to a JSON health
// verdict (ok|degraded|critical, HTTP 503 when critical) computed by
// declarative rules over the collector windows: stalled P-CTT workers
// (frozen heartbeat with work in flight), sustained inflight saturation,
// and slow-op journal rate. With -flightrec-dir, any rule firing — or
// SIGQUIT, or GET /debug/flightrec?trigger=1 — dumps an atomic
// post-mortem bundle (recent windows, journal, spans, goroutine profile,
// runtime snapshot, config) into that directory, rate-limited with
// bounded retention.
//
// Shutdown is graceful: on SIGINT/SIGTERM the listener closes (no new
// connections), in-flight connections drain for up to -drain-timeout
// (then force-close), the batching pipeline drains, the snapshot is
// written, and a final observability snapshot is logged.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/kvserver"
	"repro/internal/obs"
	"repro/internal/store"
)

func main() {
	addr := flag.String("addr", ":7070", "listen address")
	snapshot := flag.String("snapshot", "", "snapshot file to load/save")
	storeFlags := store.RegisterFlags(flag.CommandLine)
	pipeDepth := flag.Int("pipeline-depth", kvserver.DefaultPipelineDepth,
		"per-connection in-flight response window (1 = lockstep request/response)")
	flushEvery := flag.Int("flush-every", kvserver.DefaultFlushEvery,
		"responses coalesced per network flush on the pipelined path")
	diagFlags := obs.RegisterFlags(flag.CommandLine)
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second,
		"how long shutdown waits for in-flight connections before force-closing them")
	flag.Parse()

	var (
		tracer  *obs.Tracer
		journal *obs.Journal
	)
	cfg := storeFlags.Config()
	if diagFlags.Enabled() {
		tracer = diagFlags.Tracer()
		journal = diagFlags.Journal()
		if cfg.Engine.Workers > 0 {
			cfg.Engine.RecordLatency = true
			cfg.Engine.Tracer = tracer
			cfg.Engine.Journal = journal
		}
	}
	srv := kvserver.NewStore(store.Open(cfg))
	srv.SetPipeline(*pipeDepth, *flushEvery)
	srv.SetTracer(tracer)
	srv.SetJournal(journal)
	if *snapshot != "" {
		if err := srv.LoadSnapshot(*snapshot); err != nil && !os.IsNotExist(err) {
			log.Fatalf("dcart-kv: load snapshot: %v", err)
		}
	}

	var (
		diag      *obs.Server
		collector *obs.Collector
		health    *obs.Health
		flight    *obs.FlightRecorder
	)
	if diagFlags.Enabled() {
		obs.RegisterRuntime(srv.Registry())
		if journal != nil {
			obs.RegisterJournal(srv.Registry(), journal)
		}
		collector = diagFlags.Collector(srv.Registry())
		if collector != nil {
			health = obs.NewHealth(collector, obs.DefaultHealthRules()...)
		}
		if dir := diagFlags.FlightDir(); dir != "" {
			flight = obs.NewFlightRecorder(dir, obs.Diagnostics{
				Registry:  srv.Registry(),
				Tracer:    tracer,
				Collector: collector,
				Journal:   journal,
				Health:    health,
			}, health)
			cfgMap := make(map[string]string)
			flag.Visit(func(f *flag.Flag) { cfgMap[f.Name] = f.Value.String() })
			flight.SetConfig(cfgMap)
			if health != nil {
				flight.TriggerOnFire(health, log.Printf)
			}
			// SIGQUIT dumps a post-mortem bundle without killing the
			// process (the Go runtime's stack-dump-and-exit behaviour
			// only applies while SIGQUIT is unhandled).
			quit := make(chan os.Signal, 1)
			signal.Notify(quit, syscall.SIGQUIT)
			go func() {
				for range quit {
					if dir, err := flight.Trigger("sigquit"); err != nil {
						log.Printf("dcart-kv: flight recorder: %v", err)
					} else {
						log.Printf("dcart-kv: flight recorder bundle at %s", dir)
					}
				}
			}()
		}
		var err error
		diag, err = obs.ServeAll(diagFlags.Addr(), obs.Diagnostics{
			Registry:  srv.Registry(),
			Tracer:    tracer,
			Collector: collector,
			Journal:   journal,
			Health:    health,
			Flight:    flight,
		})
		if err != nil {
			log.Fatalf("dcart-kv: diagnostics listen: %v", err)
		}
		log.Printf("dcart-kv: diagnostics on http://%s/metrics", diag.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("dcart-kv: listen: %v", err)
	}
	log.Printf("dcart-kv: serving on %s (%d keys loaded)", ln.Addr(), srv.Len())

	// Graceful shutdown: the signal handler only closes the listener; the
	// main goroutine then runs the drain sequence, so there is exactly one
	// exit path.
	var (
		conns    sync.Map // net.Conn -> struct{}, the in-flight connections
		connWG   sync.WaitGroup
		draining = make(chan struct{})
	)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		log.Printf("dcart-kv: %s: shutting down (draining connections)", s)
		close(draining)
		ln.Close() // unblocks Accept
	}()

	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-draining:
			default:
				log.Printf("dcart-kv: accept: %v", err)
			}
			break
		}
		connWG.Add(1)
		conns.Store(conn, struct{}{})
		go func(c net.Conn) {
			defer connWG.Done()
			defer conns.Delete(c)
			srv.Serve(c)
		}(conn)
	}

	// Drain in-flight connections, force-closing stragglers at the
	// deadline (Serve exits on the read error a Close triggers).
	done := make(chan struct{})
	go func() { connWG.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(*drainTimeout):
		log.Printf("dcart-kv: drain timeout after %s, closing remaining connections", *drainTimeout)
		conns.Range(func(k, _ any) bool {
			k.(net.Conn).Close()
			return true
		})
		<-done
	}

	// Drain the batching pipeline before snapshotting or reporting.
	if err := srv.Close(); err != nil {
		log.Printf("dcart-kv: engine close: %v", err)
	}
	if *snapshot != "" {
		if err := srv.SaveSnapshot(*snapshot); err != nil {
			log.Printf("dcart-kv: save snapshot: %v", err)
		} else {
			log.Printf("dcart-kv: snapshot saved to %s", *snapshot)
		}
	}
	if collector != nil {
		collector.Stop()
	}
	if diag != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		diag.Shutdown(ctx) //nolint:errcheck // best-effort on the way out
		cancel()
	}
	log.Printf("dcart-kv: final stats: %s", srv.StatsSnapshot())
}
