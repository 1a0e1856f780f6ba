package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
)

// smallSizes runs the real code on inputs small enough for `go test`.
var smallSizes = sizes{zKeys: 2_000, zOps: 8_000, cKeys: 4_000, warmup: 500, cWarmup: 2_000}

// digest hashes everything a stream Z hands to the system under test and
// everything it expects back.
func (z *streamZ) digest() [32]byte {
	h := sha256.New()
	for i, k := range z.keys {
		h.Write(k)
		binary.Write(h, binary.BigEndian, z.final[i])
		h.Write([]byte{z.owner[i]})
	}
	for p := range z.scripts {
		sc := &z.scripts[p]
		binary.Write(h, binary.BigEndian, sc.key)
		h.Write(sc.kind)
		binary.Write(h, binary.BigEndian, sc.val)
		binary.Write(h, binary.BigEndian, sc.steady.val)
		binary.Write(h, binary.BigEndian, sc.steady.found)
		h.Write(sc.lineBuf)
	}
	var d [32]byte
	h.Sum(d[:0])
	return d
}

func TestStreamZSameSeedSameBytes(t *testing.T) {
	for _, wire := range []bool{false, true} {
		gen := func(seed int64) [32]byte {
			z, err := generateZ(smallSizes.zKeys, smallSizes.zOps, seed, wire)
			if err != nil {
				t.Fatal(err)
			}
			return z.digest()
		}
		if gen(7) != gen(7) {
			t.Errorf("wire=%v: the same seed gave different streams", wire)
		}
		if gen(7) == gen(8) {
			t.Errorf("wire=%v: different seeds gave the same stream", wire)
		}
	}
}

func TestStreamZEveryKeyHasOneOwner(t *testing.T) {
	z, err := generateZ(smallSizes.zKeys, smallSizes.zOps, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	ops := 0
	for p := range z.scripts {
		sc := &z.scripts[p]
		ops += sc.len()
		for i, k := range sc.key {
			if int(z.owner[k]) != p {
				t.Fatalf("producer %d holds an operation on producer %d's key", p, z.owner[k])
			}
			if got := wireOwner(z.keys[k]); got != p {
				t.Fatalf("wireOwner(%q) = %d, want %d", z.keys[k], got, p)
			}
			if line := sc.line(i); !bytes.HasSuffix(line, []byte("\n")) ||
				!bytes.Contains(line, z.keys[k][:len(z.keys[k])-1]) {
				t.Fatalf("operation %d renders as %q", i, line)
			}
		}
	}
	if ops != smallSizes.zOps {
		t.Errorf("scripts hold %d operations, want %d", ops, smallSizes.zOps)
	}
}

func TestStreamCSameSeedSameKeys(t *testing.T) {
	keys := func(seed int64) []uint64 {
		c := newChurner(1, seed, nullStore{}, 64)
		c.warm(2_000)
		return append([]uint64(nil), c.live...)
	}
	a, b, other := keys(5), keys(5), keys(6)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("live sets of %d and %d keys", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("the same seed gave different live sets at %d", i)
		}
	}
	if len(other) > 0 && other[0] == a[0] {
		t.Error("different seeds gave the same first key")
	}
}

func TestReplyRendering(t *testing.T) {
	for _, c := range []struct {
		kind uint8
		want reply
		line string
	}{
		{opGet, reply{42, true}, "VALUE 42\n"},
		{opGet, reply{}, "NOT_FOUND\n"},
		{opPut, reply{found: true}, "OK replaced\n"},
		{opPut, reply{}, "OK\n"},
		{opDelete, reply{found: true}, "OK\n"},
		{opDelete, reply{}, "NOT_FOUND\n"},
	} {
		if got := string(appendReply(nil, c.kind, c.want)); got != c.line {
			t.Errorf("appendReply(%d, %+v) = %q, want %q", c.kind, c.want, got, c.line)
		}
	}
}

// TestSmoke runs every workload, scaled down, with the oracle on.
func TestSmoke(t *testing.T) {
	cfg := config{seed: 2, sizes: smallSizes}
	for i := range workloads {
		w := &workloads[i]
		res, _, err := runUntraced(w, cfg, 0.3, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 100 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", w.name, res.Correct, res.Failed, res.Attempted)
		}
		for _, d := range endToEndMetrics {
			if m, ok := res.Metrics[d.name]; !ok || m.Value <= 0 || m.Unit != d.unit {
				t.Errorf("%s: metric %s = %+v (present %v)", w.name, d.name, m, ok)
			}
		}
	}
}

// TestSmokeTraced runs one wire workload traced: decorators, ladder and
// span output.
func TestSmokeTraced(t *testing.T) {
	cfg := config{seed: 2, sizes: smallSizes}
	out := filepath.Join(t.TempDir(), "spans.ndjson")
	res, _, err := runTraced(&workloads[0], cfg, 1.5, out, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != len(perLayerMetrics) {
		t.Errorf("correct=%v failed=%d, %d metrics, want %d", res.Correct, res.Failed, len(res.Metrics), len(perLayerMetrics))
	}
	for _, name := range append([]string{"socket.bytes_per_op", "store.wait_ns_per_op", "kvserver.depth_achieved"}, ladderRungs...) {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v on the wire, want > 0", name, res.Metrics[name].Value)
		}
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var s span
		if err := json.Unmarshal(line, &s); err != nil {
			t.Fatalf("span line %q: %v", line, err)
		}
		if s.End < s.Start {
			t.Fatalf("span ends before it starts: %+v", s)
		}
		names[s.Name]++
	}
	for _, name := range []string{spanRequest, spanStoreOp, spanSubmit, spanWait} {
		if names[name] == 0 {
			t.Errorf("no %s span written (have %v)", name, names)
		}
	}
}

// dropOneWrite acknowledges its n-th PutAsync without applying it.
type dropOneWrite struct {
	store.Store
	n    int64
	seen atomic.Int64
}

func (d *dropOneWrite) PutAsync(key []byte, value uint64) store.Pending {
	if d.seen.Add(1) == d.n {
		return nullPending{} // "inserted", and nothing stored
	}
	return d.Store.PutAsync(key, value)
}

func TestDroppedWriteFailsTheRun(t *testing.T) {
	for _, name := range []string{"engine-point", "wire-point", "engine-churn-scan"} {
		var w *workloadDef
		for i := range workloads {
			if workloads[i].name == name {
				w = &workloads[i]
			}
		}
		cfg := config{seed: 2, sizes: smallSizes, fault: func(st store.Store) store.Store {
			return &dropOneWrite{Store: st, n: 700}
		}}
		sys, err := w.setup(cfg, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sec, err := sys.run(0.3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sec.failed == 0 {
			t.Errorf("%s: a dropped write went unnoticed (%d checked)", name, sec.attempted)
		}
	}
}

func TestFailureExitsNonZero(t *testing.T) {
	// run's exit code follows result.Correct; a result that is not correct
	// is built the same way as one that is.
	res := newResult(10, 1, endToEndMetrics, map[string]float64{}, io.Discard)
	if res.Correct {
		t.Error("a result with a failure is marked correct")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "no-such"}, &stdout, &stderr); code == 0 {
		t.Error("an unknown workload exits 0")
	}
}

// stallStore stalls one submission for a while.
type stallStore struct {
	nullStore
	at    int64
	stall time.Duration
	seen  atomic.Int64
}

func (s *stallStore) GetAsync(k []byte) store.Pending {
	s.hit()
	return nullPending{}
}

func (s *stallStore) PutAsync(k []byte, v uint64) store.Pending {
	s.hit()
	return nullPending{}
}

func (s *stallStore) hit() {
	if s.seen.Add(1) == s.at {
		time.Sleep(s.stall)
	}
}

// TestOpenLoopTimesFromDueTime: when the server stalls once, the open
// loop charges the stall to every request that fell due behind it, not to
// one request.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const (
		gap   = int64(time.Millisecond)
		stall = 60 * time.Millisecond
		n     = 150
	)
	z, err := generateZ(smallSizes.zKeys, smallSizes.zOps, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	server, err := startWire(&stallStore{at: 20, stall: stall}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer server.close()
	var clients [producers]*wireClient
	var due [producers][]int64
	for p := range clients {
		sc := &z.scripts[p]
		sc.steady = *missesOf(sc)
		conn, err := server.dial()
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		clients[p] = newWireClient(conn, p, sc)
	}
	// All the traffic on the first connection, one request a millisecond.
	for i := int64(1); i <= n; i++ {
		due[0] = append(due[0], i*gap)
	}
	clients[0].lat, clients[0].late = newSamples(n), newSamples(n)
	start := now()
	tls := []*timeline{newTimeline((n+1)*gap, 1), newTimeline((n+1)*gap, 1)}
	for _, tl := range tls {
		tl.start, tl.clock = start, start
	}
	sent, err := openLoop(clients, start, due, start, tls)
	if err != nil {
		t.Fatal(err)
	}
	if sent[0] != n || len(clients[0].lat.ns) != n || clients[0].failed != 0 {
		t.Fatalf("sent %d, timed %d, failed %d; want %d, %d, 0", sent[0], len(clients[0].lat.ns), clients[0].failed, n, n)
	}
	// Requests 20..79 fell due during the stall; request 20+i waited about
	// stall - i ms. From send time only the first would look slow.
	slow := 0
	for _, ns := range clients[0].lat.ns {
		if ns > int64(stall)/4 {
			slow++
		}
	}
	if slow < 30 {
		t.Errorf("%d requests were charged for a %v stall that %d fell due behind", slow, stall, int64(stall)/gap)
	}
	if clients[0].lat.ns[5] > int64(stall)/4 {
		t.Errorf("request 5, before the stall, took %v", time.Duration(clients[0].lat.ns[5]))
	}
}

func TestSelfTimes(t *testing.T) {
	// A fake clock: the spans of one request, as the decorators would
	// record them, plus a second request without children.
	spans := []span{
		{spanRequest, 0, 64, 0, 100, ""},
		{spanStoreOp, 0, 64, 10, 70, spanRequest},
		{spanSubmit, 0, 64, 10, 30, spanStoreOp},
		{spanWait, 0, 64, 25, 60, spanStoreOp}, // overlaps the submit span
		{spanRequest, 1, 64, 0, 40, ""},        // same op id, other producer
	}
	self := selfTimes(spans)
	for name, want := range map[string]float64{
		spanRequest: (40 + 40) / 2.0, // 100-60 for the first, all 40 of the second
		spanStoreOp: 10,              // 60 long, children cover [10,60)
		spanSubmit:  20,
		spanWait:    35,
	} {
		if self[name] != want {
			t.Errorf("self time of %s = %v, want %v", name, self[name], want)
		}
	}
	if got := cover(span{Start: 0, End: 50}, []span{{Start: -10, End: 20}, {Start: 40, End: 90}}); got != 30 {
		t.Errorf("cover clips to the parent: got %d, want 30", got)
	}
}

func TestParseSteal(t *testing.T) {
	stat := "cpu  518400 4766 86331 1091372 2421 0 19604 88630 0 0\ncpu0 255477 2500 43730 547433 1635 0 9744 44499 0 0\n"
	if got, want := parseSteal([]byte(stat)), int64(88630*1e7); got != want {
		t.Errorf("parseSteal = %d ns, want %d", got, want)
	}
	for _, other := range []string{"", "cpu  1 2 3\n", "intr 5 6 7 8 9 10 11 12 13\n"} {
		if got := parseSteal([]byte(other)); got != 0 {
			t.Errorf("parseSteal(%q) = %d, want 0", other, got)
		}
	}
}

// TestQuietSlicesCarryTheMetrics: the slices the hypervisor took most from
// have no say, what it took from the others is taken out of their time,
// and a stall in one slice moves that slice's percentiles only.
func TestQuietSlicesCarryTheMetrics(t *testing.T) {
	const width = int64(sliceNs)
	cpus := int64(runtime.NumCPU())
	fast := make([]int64, 200)
	slow := make([]int64, 200)
	for i := range fast {
		fast[i], slow[i] = 100, 100_000
	}
	of := func(lat []int64) [sampleKinds][]int64 { return [sampleKinds][]int64{latency: lat} }
	// Ten slices at 1000 operations each. Five lose nothing; two lose a
	// tenth of every processor, and complete a tenth less; three lose half,
	// complete a third, and are slow besides. The ramp slice before them
	// is not measured.
	sec := &section{width: width, first: 1, slices: []slice{{ops: 7, sampled: true, samples: of(slow)}}}
	for i := 0; i < 10; i++ {
		sl := slice{ops: 1000, sampled: true, alloc: 64_000, mallocs: 2000, samples: of(fast)}
		switch {
		case i >= 7:
			sl = slice{ops: 333, sampled: true, stolen: cpus * width / 2, alloc: 10_000, mallocs: 300, samples: of(slow)}
		case i >= 5:
			sl.ops, sl.stolen = 900, cpus*width/10
		}
		sec.slices = append(sec.slices, sl)
	}
	quiet := sec.quiet()
	if len(quiet) != 5 {
		t.Fatalf("%d quiet slices, want the 5 that lost nothing", len(quiet))
	}
	if got := sec.opsPerS(); got != 10_000 {
		t.Errorf("ops/s = %v, want 10000", got)
	}
	if bytes, objects := sec.allocPerOp(); bytes != 64 || objects != 2 {
		t.Errorf("allocation per operation = %v B, %v objects; want 64, 2", bytes, objects)
	}
	if got := quantileOver(quiet, 0.99, latency); got != 100 {
		t.Errorf("p99 over the quiet slices = %v, want 100", got)
	}

	// When every slice loses something, the half that lost least carries
	// the metrics, scaled to the time it was given.
	for i := 1; i <= 5; i++ {
		sec.slices[i].ops, sec.slices[i].stolen = 900, cpus*width/10
	}
	if got := len(sec.quiet()); got != 7 {
		t.Errorf("%d quiet slices, want the 7 that lost a tenth", got)
	}
	if got := sec.opsPerS(); got != 10_000 {
		t.Errorf("ops/s with a tenth stolen = %v, want 10000", got)
	}
	// An open loop's rate is its schedule's: no scaling.
	sec.open = true
	if got := sec.opsPerS(); got != 9_000 {
		t.Errorf("open-loop ops/s = %v, want 9000", got)
	}

	// One stalled slice among the quiet ones moves its own percentiles.
	sec.slices[2].samples = of(slow)
	if got := quantileOver(sec.quiet(), 0.99, latency); got != 100 {
		t.Errorf("p99 with one stalled slice = %v, want 100", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{1, 2, 4, 7, 11, 16, 22, 29, 37, 46})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	runs := func(vs ...float64) side { return summarize(vs) }
	for _, c := range []struct {
		name   string
		a, b   side
		better string
		bound  float64
		want   string
	}{
		{"slower beyond the bound", runs(100, 101, 99), runs(120, 121, 119), "lower", 0.10, verdictRegressed},
		{"slower within the bound", runs(100, 101, 99), runs(104, 105, 103), "lower", 0.10, verdictUnchanged},
		{"faster", runs(100, 101, 99), runs(80, 81, 79), "lower", 0.10, verdictImproved},
		{"higher is better", runs(100, 101, 99), runs(80, 81, 79), "higher", 0.10, verdictRegressed},
		{"too noisy to tell", runs(100, 140, 70, 120), runs(104, 150, 60, 100), "lower", 0.10, verdictUnresolved},
		{"no runs", runs(), runs(1), "lower", 0.10, verdictMissing},
	} {
		if got := judge(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareExitCode(t *testing.T) {
	dir := t.TempDir()
	// write makes a runs file of three runs of every workload but skip,
	// every end-to-end metric reading value (plus a little per run).
	write := func(name string, value float64, failed int64, skip string) string {
		path := filepath.Join(dir, name)
		for _, w := range workloads {
			for i := 0; i < 3 && w.name != skip; i++ {
				rec := record{Workload: w.name, result: result{Correct: failed == 0, Attempted: 100, Failed: failed,
					Metrics: map[string]measured{}}}
				for _, d := range endToEndMetrics {
					rec.Metrics[d.name] = measured{value + float64(i), d.unit}
				}
				if err := appendRecord(path, rec); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	spec := filepath.Join("..", "BENCHMARK.json")
	base := write("a.json", 1000, 0, "")
	for _, c := range []struct {
		name string
		b    string
		code int
	}{
		{"equal runs", write("same.json", 1001, 0, ""), 0},
		{"every metric halved", write("half.json", 500, 0, ""), 1},     // regresses the ones where higher is better
		{"every metric doubled", write("double.json", 2000, 0, ""), 1}, // … and the ones where lower is
		{"a higher fail ratio", write("wrong.json", 1000, 1, ""), 1},
		{"a workload without runs", write("partial.json", 1000, 0, workloads[1].name), 1},
	} {
		var out bytes.Buffer
		if code := compareFiles(spec, base, c.b, &out, &out); code != c.code {
			t.Errorf("%s: exit code %d, want %d\n%s", c.name, code, c.code, out.String())
		}
		if want := map[string]string{"every metric halved": verdictRegressed, "a workload without runs": verdictMissing}[c.name]; want != "" &&
			!strings.Contains(out.String(), want) {
			t.Errorf("%s: no row says %s:\n%s", c.name, want, out.String())
		}
	}
}

// TestBenchmarkJSONMatchesTheProgram keeps the contract file and the
// program's own tables from drifting apart.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s metric %d: %s [%s] in BENCHMARK.json, %s [%s] in the program",
					kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayerMetrics)
}
