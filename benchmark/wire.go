package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"

	"repro/internal/kvserver"
	"repro/internal/store"
)

// wireServer is the in-process product: a kvserver over st on a loopback
// TCP listener, configured as `dcart-kv -batch-workers 2` would be.
type wireServer struct {
	srv   *kvserver.Server
	ln    net.Listener
	conns sync.WaitGroup // accept loop and connection handlers
}

// startWire boots the server. wrap, when non-nil, decorates each accepted
// connection before the server sees it.
func startWire(st store.Store, wrap func(net.Conn) io.ReadWriteCloser) (*wireServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	s := &wireServer{srv: kvserver.NewStore(st), ln: ln}
	s.srv.SetPipeline(kvserver.DefaultPipelineDepth, kvserver.DefaultFlushEvery)
	s.conns.Add(1)
	go func() {
		defer s.conns.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			s.conns.Add(1)
			go func() {
				defer s.conns.Done()
				if wrap != nil {
					s.srv.Serve(wrap(conn))
				} else {
					s.srv.Serve(conn)
				}
			}()
		}
	}()
	return s, nil
}

// dial opens a client connection to the server.
func (s *wireServer) dial() (net.Conn, error) {
	conn, err := net.Dial("tcp", s.ln.Addr().String())
	if err != nil {
		return nil, fmt.Errorf("dial server: %w", err)
	}
	return conn, nil
}

// close stops accepting, waits for the handlers of the (already closed)
// client connections, and closes the store.
func (s *wireServer) close() {
	s.ln.Close()
	s.conns.Wait()
	s.srv.Close()
}

// wireClient is one pipelined client connection replaying one script. The
// replies of a connection arrive in request order, so reply i is compared,
// byte for byte, with the line the model expects for request i.
type wireClient struct {
	producer int
	conn     net.Conn
	bw       *bufio.Writer
	br       *bufio.Reader
	sc       *script
	tr       *tracer // nil when not tracing

	requests int64 // sent since the connection opened
	replies  int64 // checked since the connection opened
	failed   int64
	lat      *samples
	late     *samples // open loop: how late each request was sent
	scratch  []byte
}

// newWireClient returns a client over conn that keeps no latency samples;
// a caller that wants them replaces lat and late.
func newWireClient(conn net.Conn, producer int, sc *script) *wireClient {
	return &wireClient{
		producer: producer, conn: conn, sc: sc,
		bw:  bufio.NewWriterSize(conn, 64<<10),
		br:  bufio.NewReaderSize(conn, 64<<10),
		lat: newSamples(0), late: newSamples(0),
	}
}

// endOfRun is the command a sender ends a run with; its reply tells the
// receiver that everything before it has been answered.
var endOfRun = []byte("LEN\n")

var endOfRunReply = []byte("LEN ")

// closedLoop carries on cycling through the script where the connection
// left off, with windowDepth requests in flight: limit requests when
// limit > 0, else until tl expires. It returns the requests of this run.
func (c *wireClient) closedLoop(exp *expect, limit int64, tl *timeline) (int64, error) {
	window := make(chan struct{}, windowDepth)
	stamps := make(chan int64, windowDepth) // send times of timed requests
	sendErr := make(chan error, 1)
	go func() { sendErr <- c.sendClosed(limit, tl, window, stamps) }()

	n, err := c.receive(exp, func(int64) int64 {
		<-window
		if c.replies%latEvery == 0 {
			return <-stamps
		}
		return 0
	}, tl)
	if err != nil {
		c.conn.Close() // unblocks a sender stuck on a full window or socket
	}
	return n, errors.Join(err, <-sendErr)
}

// sendClosed is closedLoop's sender. It flushes whenever the window blocks
// it: what it has buffered is what will free the window.
func (c *wireClient) sendClosed(limit int64, tl *timeline, window chan<- struct{}, stamps chan<- int64) (err error) {
	defer c.closeOnError(&err)
	n := c.sc.len()
	deadline := int64(0)
	if tl != nil {
		deadline = tl.end()
	}
	for sent := int64(0); limit <= 0 || sent < limit; sent++ {
		if deadline > 0 && sent%clockEvery == 0 && now() >= deadline {
			break
		}
		select {
		case window <- struct{}{}:
		default:
			if err := c.bw.Flush(); err != nil {
				return fmt.Errorf("send: %w", err)
			}
			window <- struct{}{}
		}
		if c.requests%latEvery == 0 {
			stamps <- now()
		}
		if _, err := c.bw.Write(c.sc.line(int(c.requests % int64(n)))); err != nil {
			return fmt.Errorf("send: %w", err)
		}
		c.requests++
	}
	if _, err := c.bw.Write(endOfRun); err != nil {
		return fmt.Errorf("send: %w", err)
	}
	if err := c.bw.Flush(); err != nil {
		return fmt.Errorf("send: %w", err)
	}
	return nil
}

// closeOnError closes the connection when a sender fails, so that the
// receiver does not wait for replies to requests that never left.
func (c *wireClient) closeOnError(err *error) {
	if *err != nil {
		c.conn.Close()
	}
}

// receive reads and checks replies until the end-of-run reply. sentAt is
// called once per reply, in order, with the reply's index in this run, and
// returns the time the request was sent (or due), 0 for requests that are
// not timed.
func (c *wireClient) receive(exp *expect, sentAt func(i int64) int64, tl *timeline) (int64, error) {
	n := int64(c.sc.len())
	for i := int64(0); ; i++ {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return i, fmt.Errorf("reply %d: %w", i, err)
		}
		if bytes.HasPrefix(line, endOfRunReply) {
			return i, nil
		}
		at := int64(0)
		if t0 := sentAt(i); t0 != 0 {
			at = now()
			c.lat.add(at-t0, at)
			if c.tr != nil && c.replies%spanEvery == 0 {
				c.tr.record(spanRequest, c.producer, c.replies, t0, at, "")
			}
		}
		idx := int(c.replies % n)
		c.scratch = appendReply(c.scratch[:0], c.sc.kind[idx], exp.at(idx))
		if !bytes.Equal(line, c.scratch) {
			c.failed++
		}
		c.replies++
		if tl != nil {
			tl.done(1)
		}
	}
}

// openLoop drives the clients on a fixed schedule — request i of client
// p's run is due at start+due[p][i] — no matter how the server keeps up,
// and times every reply from its due time, so a stall is charged to the
// requests that had to wait behind it. Requests due from measureFrom on
// are the timed ones; nothing is sent once the timelines have ended. It
// returns the requests sent per client.
func openLoop(clients [producers]*wireClient, start int64, due [producers][]int64, measureFrom int64, tls []*timeline) (sent [producers]int64, err error) {
	paceErr := make(chan error, 1)
	go func() { paceErr <- pace(clients, start, due, measureFrom, tls[0].end()) }()
	err = both(func(p int) error {
		c := clients[p]
		n, err := c.receive(&c.sc.steady, func(i int64) int64 {
			if d := start + due[p][i]; d >= measureFrom {
				return d
			}
			return 0
		}, tls[p])
		if err != nil {
			c.conn.Close() // fails the pacer, which hangs up on the others
		}
		sent[p] = n
		return err
	})
	return sent, errors.Join(err, <-paceErr)
}

// pace is the open loop's generator: one goroutine sends every client's
// requests in due order. It flushes before it waits, so requests that fall
// due together leave in one write.
func pace(clients [producers]*wireClient, start int64, due [producers][]int64, measureFrom, end int64) (err error) {
	defer func() {
		if err != nil {
			for _, c := range clients {
				c.conn.Close()
			}
		}
	}()
	var next [producers]int
	for {
		// The client whose next request is due first.
		p, d := -1, end
		for q := range clients {
			if next[q] < len(due[q]) && start+due[q][next[q]] < d {
				p, d = q, start+due[q][next[q]]
			}
		}
		if p < 0 {
			break
		}
		t := now()
		if t < d {
			for _, c := range clients {
				if err := c.bw.Flush(); err != nil {
					return fmt.Errorf("send: %w", err)
				}
			}
			t = waitUntil(d)
		}
		c := clients[p]
		if d >= measureFrom {
			c.late.add(t-d, t)
		}
		if _, err := c.bw.Write(c.sc.line(int(c.requests % int64(c.sc.len())))); err != nil {
			return fmt.Errorf("send: %w", err)
		}
		c.requests++
		next[p]++
	}
	for _, c := range clients {
		if _, err := c.bw.Write(endOfRun); err != nil {
			return fmt.Errorf("send: %w", err)
		}
		if err := c.bw.Flush(); err != nil {
			return fmt.Errorf("send: %w", err)
		}
	}
	return nil
}

// waitUntil returns once the clock has reached d, with the time it read.
// It blocks the calling thread in the kernel: the Go runtime's own timers
// are only good to a millisecond when the process is otherwise idle (its
// poller sleeps in whole milliseconds), which would make the generator
// later than the latencies it is there to measure. A thread blocked in a
// system call keeps its processor, so openLoop's caller gives the
// generator a processor of its own to sleep on.
func waitUntil(d int64) int64 {
	for {
		t := now()
		if t >= d {
			return t
		}
		ts := syscall.NsecToTimespec(d - t)
		// Waking early (EINTR) only means checking the clock sooner.
		_ = syscall.Nanosleep(&ts, nil)
	}
}
