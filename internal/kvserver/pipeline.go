// The pipelined connection path: one reader goroutine parses commands
// continuously and submits point operations to the store asynchronously,
// while a writer goroutine completes their responses in protocol order
// with coalesced flushes. This is the software analogue of the paper's
// host interface feeding the PCU's request queue (Fig 6): the wire keeps
// the engine's combine window supplied with several in-flight operations
// per connection instead of at most one, which is what lets the CTT
// pipeline's combining see a single client's traffic at all.
//
// Ordering contract (identical to the lockstep path, observable at the
// protocol level):
//
//   - Responses arrive in command order (the bounded items channel is the
//     per-connection reorder window — completion is in-order even though
//     execution inside the store may not be).
//   - Read-your-writes per key: the store applies one producer's
//     submissions per key in order, and the blocking/async boundary never
//     reorders them.
//   - SCAN, RANGE, LEN, and STATS are pipeline barriers: the reader stops
//     submitting until the writer has drained every earlier response and
//     run the command itself, so an ordered read observes exactly the
//     session's earlier acknowledged writes (snapshots barrier the same
//     way one level up: dcart-kv saves only after every connection
//     drained and the store closed).
//
// Backpressure is the window itself: a reader that gets pipeDepth
// responses ahead of the writer blocks submitting, which in turn stops
// reading from the socket — a fast client is throttled by TCP flow
// control, never by unbounded server memory.
package kvserver

import (
	"bufio"
	"time"

	"repro/internal/obs"
	"repro/internal/pctt"
	"repro/internal/store"
)

// pipeItem is one in-flight response slot. Exactly one is enqueued per
// command, in protocol order: a point op carries its store token, a
// barrier its command, anything else a pre-formatted response.
type pipeItem struct {
	kind cmdKind       // point op: GET, PUT or DEL — picks the response format
	tok  store.Pending // point op: completion token
	bar  *command      // barrier: runs on the writer after the window drained
	done chan struct{} // barrier: signaled after bar ran
	resp []byte        // literal response line (errors, BYE); never written to
	quit bool          // close the session after this response
	ws   *wireSpan     // wire-layer stage stamps (traced or journaled ops)
}

// wireSpan accumulates one operation's stage stamps across the pipelined
// wire: the reader stamps parse and submit, the writer stamps the window
// dequeue and the store wait, and the span finalizes at the flush that
// actually put the response on the wire. Its trace ID is the engine's own
// key hash (pctt.HashKey), so a sampled op's wire span and engine span
// compose into one waterfall.
type wireSpan struct {
	hash   uint64
	op     string
	traced bool // chosen by the tracer's sampler (journal-only spans are not)

	lineAt      int64 // readLine returned (parse begins)
	parsedAt    int64 // command parsed, submit begins
	submittedAt int64 // store async submit returned (engine backpressure ends)
	dequeuedAt  int64 // writer picked the item out of the reorder window
	waitedAt    int64 // store completion token resolved (response formatted)
}

// finalize builds the completed wire span once its response hit the wire
// and hands it to the tracer and journal.
func (ws *wireSpan) finalize(flushedAt int64, tr *obs.Tracer, j *obs.Journal) {
	st := make([]obs.Stage, 0, 5)
	at := ws.lineAt
	push := func(name string, end int64) {
		if end < at {
			end = at // wall-clock stamps; guard against clock steps
		}
		st = append(st, obs.Stage{Name: name, StartUnixNano: at, EndUnixNano: end})
		at = end
	}
	push("parse", ws.parsedAt)
	push("submit", ws.submittedAt)
	push("window", ws.dequeuedAt)
	push("execute", ws.waitedAt)
	push("flush", flushedAt)
	s := obs.Span{
		TraceID:        ws.hash,
		Op:             ws.op,
		Worker:         -1, // the wire has no pipeline worker
		Bucket:         -1,
		SubmitUnixNano: ws.lineAt,
		BatchUnixNano:  st[3].StartUnixNano, // execute begins
		DoneUnixNano:   at,
		QueueWaitNanos: st[3].StartUnixNano - ws.lineAt,
		ExecNanos:      at - st[3].StartUnixNano,
		Layer:          "wire",
		Stages:         st,
	}
	if ws.traced && tr != nil {
		tr.Record(s)
	}
	if j != nil {
		j.Observe(s)
	}
}

// finalizeLockstep is finalize for the lockstep path, whose one-at-a-time
// loop has no submit or window stages: handle() covers parse+execute in
// one interval, then the per-command flush.
func (ws *wireSpan) finalizeLockstep(flushedAt int64, tr *obs.Tracer, j *obs.Journal) {
	exec := ws.waitedAt
	if exec < ws.lineAt {
		exec = ws.lineAt
	}
	if flushedAt < exec {
		flushedAt = exec
	}
	s := obs.Span{
		TraceID:        ws.hash,
		Op:             ws.op,
		Worker:         -1,
		Bucket:         -1,
		SubmitUnixNano: ws.lineAt,
		BatchUnixNano:  ws.lineAt,
		DoneUnixNano:   flushedAt,
		ExecNanos:      exec - ws.lineAt,
		Layer:          "wire",
		Stages: []obs.Stage{
			{Name: "execute", StartUnixNano: ws.lineAt, EndUnixNano: exec},
			{Name: "flush", StartUnixNano: exec, EndUnixNano: flushedAt},
		},
	}
	if ws.traced && tr != nil {
		tr.Record(s)
	}
	if j != nil {
		j.Observe(s)
	}
}

// beginWireSpan makes the per-operation wire sampling decision for a parsed
// point command: every op is stamped when the slow-op journal is armed,
// plus the tracer's own 1-in-N choice. lineAt is the pre-parse stamp taken
// by readCommand; zero means wire observability is off entirely and no
// span is made.
func (s *Server) beginWireSpan(lineAt int64, cmd command) *wireSpan {
	if lineAt == 0 {
		return nil
	}
	traced := s.tracer != nil && s.tracer.Sample()
	if !traced && s.journal == nil {
		return nil
	}
	return &wireSpan{
		hash:     pctt.HashKey(cmd.key),
		op:       cmd.kind.String(),
		traced:   traced,
		lineAt:   lineAt,
		parsedAt: time.Now().UnixNano(),
	}
}

// tooLongResp answers a line that overflowed the read buffer.
var tooLongResp = respLine("ERR line too long")

// servePipelined runs one connection's reader loop, with the response
// writer on a second goroutine.
func (s *Server) servePipelined(r *bufio.Reader, c *connState) {
	items := make(chan pipeItem, s.pipeDepth)
	writerDone := make(chan struct{})
	go s.pipeWriter(items, c, writerDone)

	// One reusable completion signal: at most one barrier is ever
	// outstanding because the reader blocks on it.
	barDone := make(chan struct{}, 1)

	for quit := false; !quit; {
		cmd, errResp, lineAt, err := s.readCommand(r)
		switch {
		case errResp != nil:
			items <- pipeItem{resp: errResp}
		case cmd.kind == cmdBlank:
		case cmd.kind.point():
			ws := s.beginWireSpan(lineAt, cmd)
			s.stats.submitted()
			tok := s.submit(cmd)
			if ws != nil {
				ws.submittedAt = time.Now().UnixNano()
			}
			items <- pipeItem{kind: cmd.kind, tok: tok, ws: ws}
		case cmd.kind == cmdQuit:
			items <- pipeItem{resp: respLine("BYE"), quit: true}
			quit = true
		default:
			bar := cmd // only a barrier's command moves to the heap
			items <- pipeItem{bar: &bar, done: barDone}
			<-barDone
		}
		if err != nil {
			break
		}
	}
	close(items)
	<-writerDone
}

// pipeWriter completes responses in protocol order: literal responses are
// copied out, point-op tokens are waited (this is where in-order
// completion meets out-of-order execution), barriers run inline. Flushes
// coalesce — one per flushEvery responses, plus one whenever the window
// runs dry so no response ever waits on an idle connection. On a write
// error the writer goes dark but keeps draining, so every submitted token
// is still waited and the reader is never wedged on a full window.
func (s *Server) pipeWriter(items <-chan pipeItem, c *connState, done chan<- struct{}) {
	defer close(done)
	dead := false
	sinceFlush := 0
	// spans holds the stamped wire spans whose responses are buffered but
	// not yet flushed; they finalize (tracer + slow-op journal) when the
	// flush that carries their responses happens, so the flush stage
	// measures real coalescing delay. Bounded by the flush cadence.
	var spans []*wireSpan
	flush := func() {
		if !dead && c.flush() != nil {
			dead = true
		}
		sinceFlush = 0
		if len(spans) > 0 {
			flushedAt := time.Now().UnixNano()
			for _, ws := range spans {
				ws.finalize(flushedAt, s.tracer, s.journal)
			}
			spans = spans[:0]
		}
	}
	for {
		var it pipeItem
		var ok bool
		select {
		case it, ok = <-items:
		default:
			// Window dry: everything answered so far goes out before we
			// block waiting for more commands.
			flush()
			c.track.backlog.Store(0)
			it, ok = <-items
		}
		if !ok {
			flush()
			c.track.backlog.Store(0)
			return
		}
		occupancy := int64(len(items)) + 1
		c.track.backlog.Store(occupancy)
		if it.ws != nil {
			it.ws.dequeuedAt = time.Now().UnixNano()
		}
		switch {
		case it.tok != nil:
			v, found := it.tok.Wait()
			s.stats.inflight.Add(-1)
			if !dead {
				c.reply(it.kind, v, found)
			}
		case it.bar != nil:
			if !dead {
				c.barrier(*it.bar)
			}
			it.done <- struct{}{}
		case !dead:
			c.w.Write(it.resp)
		}
		if it.ws != nil {
			it.ws.waitedAt = time.Now().UnixNano()
			spans = append(spans, it.ws)
		}
		s.stats.responses.Add(1)
		s.stats.depthSum.Add(occupancy)
		sinceFlush++
		if sinceFlush >= s.flushEvery || it.quit {
			flush()
		}
	}
}

// respLine renders one response line into an owned buffer (the pipelined
// reader cannot use the writer-owned scratch).
func respLine(parts ...string) []byte {
	n := len(parts)
	for _, p := range parts {
		n += len(p)
	}
	b := make([]byte, 0, n)
	for i, p := range parts {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, p...)
	}
	return append(b, '\n')
}

// scan executes SCAN against the store, streaming rows through the
// connection's writer.
func (c *connState) scan(prefix []byte, limit int) {
	s := c.s
	clipped := limit > s.maxScan
	if clipped {
		limit = s.maxScan
	}
	truncated := s.st.Scan(prefix, limit, func(k []byte, v uint64) bool {
		c.kvLine(k, v)
		return true
	})
	c.scanEnd(clipped, truncated)
}

// rangeScan executes RANGE under the same contract as scan.
func (c *connState) rangeScan(lo, hi []byte, limit int) {
	s := c.s
	clipped := limit > s.maxScan
	if clipped {
		limit = s.maxScan
	}
	truncated := s.st.Range(lo, hi, limit, func(k []byte, v uint64) bool {
		c.kvLine(k, v)
		return true
	})
	c.scanEnd(clipped, truncated)
}
