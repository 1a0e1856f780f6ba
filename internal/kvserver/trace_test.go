package kvserver

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pctt"
)

// waitSpans polls for fn to succeed: wire spans finalize on the writer
// goroutine's flush, which can land just after the client read the
// response.
func waitSpans(t *testing.T, fn func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !fn() {
		if time.Now().After(deadline) {
			t.Fatal("spans did not appear in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWireSpanWaterfall is the acceptance check: a sampled op on the
// pipelined batched server records a wire span whose waterfall renders
// with the parse/submit/window/execute/flush stages, correlated with the
// engine's span through the shared key-hash trace ID.
func TestWireSpanWaterfall(t *testing.T) {
	tr := obs.NewTracer(0, 1) // sample every op
	srv := NewBatchedConfig(pctt.Config{Workers: 2, Tracer: tr})
	defer srv.Close()
	srv.SetTracer(tr)

	s := newSession(srv)
	defer s.close()

	if got := s.cmd(t, "PUT alpha 1"); got != "OK" {
		t.Fatalf("PUT: %q", got)
	}
	if got := s.cmd(t, "GET alpha"); got != "VALUE 1" {
		t.Fatalf("GET: %q", got)
	}

	id := pctt.HashKey(storedKey([]byte("alpha")))
	var spans []obs.Span
	waitSpans(t, func() bool {
		spans = tr.SpansFor(id)
		wire, engine := false, false
		for _, sp := range spans {
			switch sp.Layer {
			case "wire":
				wire = true
			case "engine":
				engine = true
			}
		}
		return wire && engine
	})

	var wire obs.Span
	for _, sp := range spans {
		if sp.Layer == "wire" {
			wire = sp
			break
		}
	}
	want := []string{"parse", "submit", "window", "execute", "flush"}
	if len(wire.Stages) != len(want) {
		t.Fatalf("wire stages = %+v, want %v", wire.Stages, want)
	}
	for i, st := range wire.Stages {
		if st.Name != want[i] {
			t.Fatalf("stage %d = %q, want %q", i, st.Name, want[i])
		}
		if st.Nanos() < 0 {
			t.Fatalf("stage %q negative: %+v", st.Name, st)
		}
		if i > 0 && st.StartUnixNano != wire.Stages[i-1].EndUnixNano {
			t.Fatalf("stage %q not contiguous with previous", st.Name)
		}
	}

	var b strings.Builder
	obs.WriteWaterfall(&b, spans)
	out := b.String()
	distinct := 0
	for _, name := range want {
		if strings.Contains(out, name) {
			distinct++
		}
	}
	if distinct < 4 {
		t.Fatalf("waterfall renders %d of the wire stages, want >= 4:\n%s", distinct, out)
	}
	if !strings.Contains(out, "wire/") || !strings.Contains(out, "engine/") {
		t.Fatalf("waterfall missing a layer:\n%s", out)
	}
}

// TestPipelinedJournalCapturesEveryOp: with a zero-threshold journal and
// no tracer, every point op lands in the journal with its wire-stage
// breakdown — journaling is exhaustive, not sampled.
func TestPipelinedJournalCapturesEveryOp(t *testing.T) {
	j := obs.NewJournal(0, 0, nil)
	srv := NewBatchedConfig(pctt.Config{Workers: 1})
	defer srv.Close()
	srv.SetJournal(j)

	s := newSession(srv)
	defer s.close()

	const ops = 10
	for i := 0; i < ops; i++ {
		if got := s.cmd(t, "PUT k 7"); got != "OK" && got != "OK replaced" {
			t.Fatalf("PUT: %q", got)
		}
	}

	waitSpans(t, func() bool { return j.Recorded() >= ops })
	evs := j.Events()
	if len(evs) < ops {
		t.Fatalf("journal holds %d events, want >= %d", len(evs), ops)
	}
	for _, e := range evs {
		if e.Layer != "wire" {
			t.Fatalf("event layer = %q, want wire", e.Layer)
		}
		if e.Op != "put" {
			t.Fatalf("event op = %q, want put", e.Op)
		}
		if len(e.Stages) != 5 {
			t.Fatalf("event stages = %+v, want 5", e.Stages)
		}
		if e.TotalNanos < 0 {
			t.Fatalf("negative total: %+v", e)
		}
	}
}

// TestLockstepWireSpans: depth-1 connections stamp a degenerate
// execute/flush wire span for traced ops and journal slow ones too.
func TestLockstepWireSpans(t *testing.T) {
	tr := obs.NewTracer(0, 1)
	j := obs.NewJournal(0, 0, nil)
	srv := New()
	defer srv.Close()
	srv.SetPipeline(1, 1)
	srv.SetTracer(tr)
	srv.SetJournal(j)

	s := newSession(srv)
	defer s.close()

	if got := s.cmd(t, "PUT beta 2"); got != "OK" {
		t.Fatalf("PUT: %q", got)
	}
	if got := s.cmd(t, "GET beta"); got != "VALUE 2" {
		t.Fatalf("GET: %q", got)
	}

	id := pctt.HashKey(storedKey([]byte("beta")))
	var spans []obs.Span
	waitSpans(t, func() bool {
		spans = tr.SpansFor(id)
		return len(spans) >= 2
	})
	for _, sp := range spans {
		if sp.Layer != "wire" {
			t.Fatalf("span layer = %q, want wire", sp.Layer)
		}
		if len(sp.Stages) != 2 || sp.Stages[0].Name != "execute" || sp.Stages[1].Name != "flush" {
			t.Fatalf("lockstep stages = %+v", sp.Stages)
		}
	}
	if j.Recorded() < 2 {
		t.Fatalf("journal recorded %d, want >= 2", j.Recorded())
	}
}
