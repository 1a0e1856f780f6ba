// Package kvserver implements the line-protocol key-value service behind
// cmd/dcart-kv: the "key-value store" deployment scenario the DCART
// paper's introduction motivates. It is a pure protocol layer — parsing,
// response formatting, and connection lifecycle — over the storage
// contract in internal/store, and never touches an index or engine
// directly.
//
// The store decides the execution mode:
//
//   - store.Direct: one lock-coupling tree descent per command (the
//     baseline discipline of the paper's CPU systems).
//   - store.Batched: point operations route through the parallel CTT
//     engine (internal/pctt), whose combining front end coalesces
//     concurrent requests that share a key prefix — the paper's CTT
//     pipeline applied to live TCP traffic. A connection's own writes
//     are visible because every engine call blocks until applied.
//   - store.Sharded: the scale-out shape of the paper's Fig 6 — point
//     operations route to the owning shard, SCAN/RANGE scatter-gather
//     with an ordered merge.
//
// Every read, write, scan, LEN, and snapshot flows through the one
// store.Store value, so swapping topologies never changes protocol
// behavior.
package kvserver

import (
	"bufio"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/pctt"
	"repro/internal/store"
)

// maxScanLimit caps SCAN/RANGE responses. When this cap (not the
// client's own limit) clips a response that had more rows, the
// terminator becomes "END TRUNCATED" so clients can tell a complete
// result from a clipped one.
const maxScanLimit = 10_000

// maxLineLen bounds one protocol line (command or response input). A
// longer line is discarded whole and answered with "ERR line too long";
// the session stays in sync at the next newline.
const maxLineLen = 64 << 10

// Pipelining defaults: the per-connection in-flight response window and
// the response-coalescing flush cap. Depth 1 selects the lockstep path
// (read one command, apply, respond, flush, repeat).
const (
	DefaultPipelineDepth = 64
	DefaultFlushEvery    = 32
)

// Per-connection buffer pools: the buffered line reader, the buffered
// response writer, and the response-line scratch are all recycled across
// connections, so a busy accept loop stops churning the allocator.
var (
	readerPool = sync.Pool{
		New: func() any { return bufio.NewReaderSize(eofReader{}, maxLineLen) },
	}
	writerPool = sync.Pool{
		New: func() any { return bufio.NewWriterSize(io.Discard, 32<<10) },
	}
	lineBufPool = sync.Pool{
		New: func() any { b := make([]byte, 0, 256); return &b },
	}
)

// eofReader is the parked readers' placeholder source (never read; it
// just drops the pooled reader's reference to a dead connection).
type eofReader struct{}

func (eofReader) Read([]byte) (int, error) { return 0, io.EOF }

// serverStats is the server-wide pipelining instrumentation, aggregated
// across connections. All fields are atomics written on the hot path and
// read by the obs gauges and the server benchmark.
type serverStats struct {
	// inflight counts point operations submitted to the store whose
	// responses have not completed yet.
	inflight atomic.Int64
	// flushes counts response-writer flushes that moved bytes (lockstep:
	// one per command; pipelined: one per coalesced run).
	flushes atomic.Int64
	// responses counts completed pipelined responses; depthSum accumulates
	// the connection's window occupancy observed as each one completed, so
	// depthSum/responses is the mean pipeline depth actually achieved.
	responses atomic.Int64
	depthSum  atomic.Int64
	// depthHW is the high-water submitted-but-unanswered count.
	depthHW atomic.Int64
}

// submitted records one async submission and maintains the high-water
// mark.
func (st *serverStats) submitted() {
	n := st.inflight.Add(1)
	for {
		hw := st.depthHW.Load()
		if n <= hw || st.depthHW.CompareAndSwap(hw, n) {
			return
		}
	}
}

// PipelineStats is a point-in-time copy of the server's pipelining
// counters (see serverStats for field semantics).
type PipelineStats struct {
	Inflight       int64
	Flushes        int64
	Responses      int64
	DepthSum       int64
	DepthHighWater int64
}

// Server is the key-value service. Safe for concurrent use; Serve is run
// once per connection.
type Server struct {
	st      store.Store
	reg     *obs.Registry
	batched bool
	maxScan int

	pipeDepth  int
	flushEvery int
	stats      serverStats

	// tracer and journal observe the wire layer: the tracer samples
	// operations for stage-stamped lifecycle spans; the journal captures
	// every operation slower than its threshold. Both optional (SetTracer /
	// SetJournal, before Serve).
	tracer  *obs.Tracer
	journal *obs.Journal

	// conns tracks live connections (*connTrack → nothing) so the obs
	// layer can see backpressure forming per connection, not just in the
	// server-wide aggregates.
	conns sync.Map
}

// connTrack is one live connection's occupancy mirror: backlog is the
// connection's reorder-window occupancy (commands submitted, responses
// not yet completed), updated by the pipelined writer as it completes
// each response. Lockstep connections stay at 0 — their window is
// definitionally empty between commands.
type connTrack struct {
	backlog atomic.Int64
}

// New returns an empty server over a direct (unbatched, unsharded) store.
func New() *Server { return NewStore(store.NewDirect()) }

// NewBatched returns an empty server whose point operations flow through
// the parallel CTT engine with the given worker count (<=0 for the
// default). Call Close to stop the engine's workers.
func NewBatched(workers int) *Server {
	return NewBatchedConfig(pctt.Config{Workers: workers})
}

// NewBatchedConfig is NewBatched with the full engine configuration
// exposed — queue shaping (QueueDepth/MaxInflight) and work stealing
// (NoSteal) — for servers that tune the latency/throughput trade-off per
// deployment.
func NewBatchedConfig(cfg pctt.Config) *Server {
	return NewStore(store.NewBatched(cfg))
}

// NewStore returns a server over any store — direct, batched, sharded, or
// a custom implementation. The server owns the store from here on: Close
// closes it, snapshots go through store.Save/Load.
func NewStore(st store.Store) *Server {
	s := &Server{
		st: st, batched: isBatched(st), maxScan: maxScanLimit,
		pipeDepth: DefaultPipelineDepth, flushEvery: DefaultFlushEvery,
	}
	s.initObs()
	return s
}

// isBatched reports whether point operations flow through a CTT pipeline
// (directly or inside every shard of a sharded store).
func isBatched(st store.Store) bool {
	switch v := st.(type) {
	case *store.Batched:
		return true
	case *store.Sharded:
		return v.NumShards() > 0 && isBatched(v.Shard(0))
	}
	return false
}

// initObs builds the server's observability registry: whatever the store
// exposes (engine pipeline series in batched mode, per-shard groups when
// sharded) plus the server-level key-count gauge. The same registry backs
// the STATS wire command and (when dcart-kv passes it to obs.Serve) the
// diagnostics HTTP endpoint.
func (s *Server) initObs() {
	s.reg = obs.NewRegistry()
	s.st.RegisterObs(s.reg)
	s.reg.RegisterGauge("kv", "dcart_keys", "", "keys stored in the tree",
		func() float64 { return float64(s.st.Len()) })
	s.reg.RegisterGauge("kv", "dcart_server_inflight", "",
		"point operations submitted to the store and not yet answered (pipelined connections)",
		func() float64 { return float64(s.stats.inflight.Load()) })
	s.reg.RegisterGauge("kv", "dcart_server_flushes", "",
		"cumulative response-writer flushes (pipelining coalesces up to flush-every responses per flush)",
		func() float64 { return float64(s.stats.flushes.Load()) })
	s.reg.RegisterGauge("kv", "dcart_server_pipeline_depth", "",
		"mean per-connection response-window occupancy observed at completion (pipelined responses)",
		func() float64 {
			n := s.stats.responses.Load()
			if n == 0 {
				return 0
			}
			return float64(s.stats.depthSum.Load()) / float64(n)
		})
	s.reg.RegisterGauge("kv", "dcart_server_connections", "",
		"live client connections",
		func() float64 { return float64(len(s.ConnBacklogs())) })
	s.reg.RegisterGauge("kv", "dcart_server_conn_backlog_max", "",
		"largest per-connection response-window occupancy right now (a window "+
			"pinned at pipeline-depth means that client is fully backpressured)",
		func() float64 {
			var max int64
			for _, b := range s.ConnBacklogs() {
				if b > max {
					max = b
				}
			}
			return float64(max)
		})
}

// ConnBacklogs returns each live connection's current response-window
// occupancy (order unspecified). Load tests read this to watch
// backpressure form per connection.
func (s *Server) ConnBacklogs() []int64 {
	out := []int64{}
	s.conns.Range(func(k, _ any) bool {
		out = append(out, k.(*connTrack).backlog.Load())
		return true
	})
	return out
}

// SetPipeline configures per-connection pipelining: depth is the bounded
// in-flight response window (1 selects the lockstep path — read, apply,
// respond, flush, repeat), flushEvery caps how many responses may coalesce
// into one network flush (the writer also flushes whenever the window runs
// dry, so an idle connection never waits on a buffered response). Call
// before Serve.
func (s *Server) SetPipeline(depth, flushEvery int) {
	if depth < 1 {
		depth = 1
	}
	if flushEvery < 1 {
		flushEvery = 1
	}
	s.pipeDepth = depth
	s.flushEvery = flushEvery
}

// SetTracer attaches a wire-layer span tracer: sampled operations carry
// parse → submit → window → execute → flush stage stamps through the
// pipelined path, keyed by the same end-to-end key hash the engine's spans
// use so one operation's spans compose into a waterfall. Call before
// Serve; typically the same tracer is handed to the engine config.
func (s *Server) SetTracer(tr *obs.Tracer) { s.tracer = tr }

// SetJournal attaches the slow-op journal: EVERY point operation is
// stage-stamped through the wire (no sampling) and offered to the journal,
// which keeps only those at or above its latency threshold. Call before
// Serve.
func (s *Server) SetJournal(j *obs.Journal) { s.journal = j }

// Tracer returns the wire tracer (nil when unset).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// Journal returns the slow-op journal (nil when unset).
func (s *Server) Journal() *obs.Journal { return s.journal }

// PipelineStats returns a point-in-time copy of the server-wide
// pipelining counters.
func (s *Server) PipelineStats() PipelineStats {
	return PipelineStats{
		Inflight:       s.stats.inflight.Load(),
		Flushes:        s.stats.flushes.Load(),
		Responses:      s.stats.responses.Load(),
		DepthSum:       s.stats.depthSum.Load(),
		DepthHighWater: s.stats.depthHW.Load(),
	}
}

// Registry exposes the server's observability registry (for the
// diagnostics HTTP server).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Store exposes the server's storage layer.
func (s *Server) Store() store.Store { return s.st }

// StatsSnapshot returns the same point-in-time snapshot the STATS wire
// command renders.
func (s *Server) StatsSnapshot() *obs.Snapshot { return s.reg.Snapshot() }

// Close shuts the store down (stopping any engine workers).
func (s *Server) Close() error { return s.st.Close() }

// Batched reports whether point operations flow through the CTT pipeline.
func (s *Server) Batched() bool { return s.batched }

// Len returns the number of stored keys.
func (s *Server) Len() int { return s.st.Len() }

// SetMaxScanLimit overrides the SCAN/RANGE response cap (tests exercise
// the TRUNCATED terminator without 10k-row fixtures). Call before Serve.
func (s *Server) SetMaxScanLimit(n int) {
	if n > 0 {
		s.maxScan = n
	}
}

// storedKey appends the 0x00 terminator so client keys are prefix-safe. The
// copy is what lets the key outlive the read buffer tok aliases.
func storedKey(tok []byte) []byte {
	k := make([]byte, len(tok)+1)
	copy(k, tok)
	return k
}

// clientKey strips the terminator for display.
func clientKey(k []byte) []byte {
	if n := len(k); n > 0 && k[n-1] == 0 {
		return k[:n-1]
	}
	return k
}

// connState is the per-connection state: the pooled response writer plus a
// pooled scratch buffer for formatting response lines without allocating.
type connState struct {
	s       *Server
	w       *bufio.Writer
	scratch []byte
	track   *connTrack
}

// flush pushes buffered responses to the connection, counting only
// flushes that actually moved bytes.
func (c *connState) flush() error {
	if c.w.Buffered() == 0 {
		return nil
	}
	c.s.stats.flushes.Add(1)
	return c.w.Flush()
}

// line formats and streams one response line (parts joined by spaces).
func (c *connState) line(parts ...string) {
	b := c.scratch[:0]
	for i, p := range parts {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, p...)
	}
	b = append(b, '\n')
	c.scratch = b
	c.w.Write(b)
}

// kvLine streams one "KEY <key> <value>" line. Scan callbacks call this
// while holding tree read locks, so it must not block on anything but the
// buffered writer itself; results stream out incrementally instead of
// being accumulated.
func (c *connState) kvLine(k []byte, v uint64) {
	b := append(c.scratch[:0], "KEY "...)
	b = append(b, clientKey(k)...)
	b = append(b, ' ')
	b = strconv.AppendUint(b, v, 10)
	b = append(b, '\n')
	c.scratch = b
	c.w.Write(b)
}

// scanEnd writes the scan terminator: "END TRUNCATED" when the server's
// response cap (not the client's own limit) clipped a response that had
// more rows, plain "END" otherwise.
func (c *connState) scanEnd(clipped, truncated bool) {
	if clipped && truncated {
		c.line("END", "TRUNCATED")
	} else {
		c.line("END")
	}
}

// Serve handles one connection until QUIT, EOF, or a write error. With a
// pipeline depth above 1 (the default) the connection runs the pipelined
// reader/writer pair in pipeline.go; depth 1 runs the lockstep loop.
func (s *Server) Serve(conn io.ReadWriteCloser) {
	defer conn.Close()

	r := readerPool.Get().(*bufio.Reader)
	r.Reset(conn)
	defer func() {
		r.Reset(eofReader{}) // drop the conn reference before pooling
		readerPool.Put(r)
	}()

	w := writerPool.Get().(*bufio.Writer)
	w.Reset(conn)
	defer func() {
		w.Reset(io.Discard)
		writerPool.Put(w)
	}()

	scratch := lineBufPool.Get().(*[]byte)
	track := &connTrack{}
	s.conns.Store(track, struct{}{})
	c := &connState{s: s, w: w, scratch: (*scratch)[:0], track: track}
	defer func() {
		s.conns.Delete(track)
		*scratch = c.scratch[:0]
		lineBufPool.Put(scratch)
	}()

	if s.pipeDepth > 1 {
		s.servePipelined(r, c)
	} else {
		s.serveLockstep(r, c)
	}
}

// readLine returns the next protocol line without its terminator. A line
// longer than the reader's buffer is discarded through its newline and
// reported as tooLong — the session survives and resynchronizes at the
// next line. A final unterminated line comes back together with io.EOF;
// the returned slice aliases the reader's buffer and is only valid until
// the next read.
func readLine(r *bufio.Reader) (line []byte, tooLong bool, err error) {
	line, err = r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		for err == bufio.ErrBufferFull {
			_, err = r.ReadSlice('\n')
		}
		return nil, true, err
	}
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	return line, false, err
}

// readCommand reads the next line and parses it: a well-formed command, or
// the error response the line is answered with (a blank line gives
// neither). lineAt is the stamp taken when the line arrived, before the
// parse; it stays zero — and the clock unread — while wire observability is
// off. Both connection loops start here. A final unterminated line comes
// back together with io.EOF.
func (s *Server) readCommand(r *bufio.Reader) (cmd command, errResp []byte, lineAt int64, err error) {
	raw, tooLong, err := readLine(r)
	if s.tracer != nil || s.journal != nil {
		lineAt = time.Now().UnixNano()
	}
	if tooLong {
		return command{}, tooLongResp, lineAt, err
	}
	cmd, errResp = parseCommand(raw)
	return cmd, errResp, lineAt, err
}

// serveLockstep is the unpipelined connection loop: one command parsed,
// applied, answered, and flushed at a time — the baseline the server
// benchmark compares pipelining against. It is a pipeline of depth exactly
// 1: the same parser, the same store tokens (waited at once), the same
// response formatting as the pipelined path.
func (s *Server) serveLockstep(r *bufio.Reader, c *connState) {
	for {
		cmd, errResp, lineAt, err := s.readCommand(r)
		if errResp != nil || cmd.kind != cmdBlank {
			var ws *wireSpan
			switch {
			case errResp != nil:
				c.w.Write(errResp)
			case cmd.kind.point():
				ws = s.beginWireSpan(lineAt, cmd)
				v, found := s.submit(cmd).Wait()
				c.reply(cmd.kind, v, found)
			case cmd.kind == cmdQuit:
				c.line("BYE")
			default:
				c.barrier(cmd)
			}
			if ws != nil {
				ws.waitedAt = time.Now().UnixNano()
			}
			// Window accounting: flushes count like the pipelined path's so
			// flushes-per-response is comparable across modes.
			s.stats.responses.Add(1)
			s.stats.depthSum.Add(1)
			ferr := c.flush()
			if ws != nil {
				ws.finalizeLockstep(time.Now().UnixNano(), s.tracer, s.journal)
			}
			if ferr != nil || cmd.kind == cmdQuit {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// submit hands a point command to the store and returns its token.
func (s *Server) submit(cmd command) store.Pending {
	switch cmd.kind {
	case cmdGet:
		return s.st.GetAsync(cmd.key)
	case cmdPut:
		return s.st.PutAsync(cmd.key, cmd.value)
	default:
		return s.st.DeleteAsync(cmd.key)
	}
}

// reply writes a point command's response line from its token's result.
func (c *connState) reply(kind cmdKind, value uint64, found bool) {
	switch {
	case kind == cmdGet && found:
		b := append(c.scratch[:0], "VALUE "...)
		b = strconv.AppendUint(b, value, 10)
		b = append(b, '\n')
		c.scratch = b
		c.w.Write(b)
	case kind == cmdPut && found:
		c.line("OK replaced")
	case kind == cmdPut, kind == cmdDelete && found:
		c.line("OK")
	default:
		c.line("NOT_FOUND")
	}
}

// barrier runs a command that reads the whole store (SCAN, RANGE, LEN,
// STATS) and streams its response. The pipelined path calls it on the
// writer once the window has drained.
func (c *connState) barrier(cmd command) {
	s := c.s
	switch cmd.kind {
	case cmdScan:
		c.scan(cmd.key, cmd.limit)
	case cmdRange:
		c.rangeScan(cmd.key, cmd.hi, cmd.limit)
	case cmdLen:
		c.line("LEN", strconv.Itoa(s.st.Len()))
	case cmdStats:
		// The full observability snapshot — counters, live gauges, and
		// latency quantiles when enabled — as sorted key=value pairs: the
		// wire-protocol twin of the diagnostics server's /statsz.
		c.line("STATS", s.reg.Snapshot().String())
	}
}

// SaveSnapshot persists the store to path via store.Save (sharded stores
// write one file per shard, everything else one atomic art-format file).
func (s *Server) SaveSnapshot(path string) error {
	return store.Save(s.st, path)
}

// LoadSnapshot replaces the store's contents with the snapshot at path.
// Call before serving traffic.
func (s *Server) LoadSnapshot(path string) error {
	return store.Load(s.st, path)
}
