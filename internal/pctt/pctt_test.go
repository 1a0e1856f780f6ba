package pctt

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/workload"
)

func testWorkload(t testing.TB, nKeys, nOps int, seed int64) *workload.Workload {
	t.Helper()
	return workload.MustGenerate(workload.Spec{
		Name: workload.EA, NumKeys: nKeys, NumOps: nOps,
		ReadRatio: 0.5, InsertFraction: 0.25, Seed: seed,
	})
}

// replay computes the sequential reference state of a workload.
func replay(w *workload.Workload) map[string]uint64 {
	ref := map[string]uint64{}
	for i, k := range w.Keys {
		ref[string(k)] = uint64(i)
	}
	for _, op := range w.Ops {
		switch op.Kind {
		case workload.Write:
			ref[string(op.Key)] = op.Value
		case workload.Delete:
			delete(ref, string(op.Key))
		}
	}
	return ref
}

// TestRunMatchesReferenceMap: the parallel engine's final state must equal
// a sequential map replay (per-key last-write-wins), at several worker
// counts.
func TestRunMatchesReferenceMap(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			w := testWorkload(t, 2000, 20000, 41)
			e := New(Config{Workers: workers, ChunkSize: 64})
			defer e.Close()
			e.Load(w.Keys, nil)
			res := e.Run(w.Ops)
			if res.Ops != len(w.Ops) {
				t.Fatalf("res.Ops = %d", res.Ops)
			}
			ref := replay(w)
			if e.Tree().Len() != len(ref) {
				t.Fatalf("tree has %d keys, reference %d", e.Tree().Len(), len(ref))
			}
			for ks, want := range ref {
				if got, ok := e.Tree().Get([]byte(ks)); !ok || got != want {
					t.Fatalf("key %q = (%d,%v), want %d", ks, got, ok, want)
				}
			}
		})
	}
}

// TestPerKeyReadYourWrites is the parallel version of the serial model's
// central ordering property (DESIGN.md §4): every read in the stream must
// observe exactly the value of the last earlier write to the same key
// (sharding sends all of a key's operations to one worker, FIFO).
func TestPerKeyReadYourWrites(t *testing.T) {
	w := testWorkload(t, 1500, 30000, 42)
	e := New(Config{Workers: 4, ChunkSize: 32, CollectReads: true})
	defer e.Close()
	e.Load(w.Keys, nil)
	res := e.Run(w.Ops)

	// Expected value of each read = prefix replay at its stream position.
	type expect struct {
		value uint64
		ok    bool
	}
	state := map[string]uint64{}
	for i, k := range w.Keys {
		state[string(k)] = uint64(i)
	}
	want := make([]expect, len(w.Ops))
	for i, op := range w.Ops {
		switch op.Kind {
		case workload.Read:
			v, ok := state[string(op.Key)]
			want[i] = expect{v, ok}
		case workload.Write:
			state[string(op.Key)] = op.Value
		case workload.Delete:
			delete(state, string(op.Key))
		}
	}

	nReads := 0
	for _, r := range res.Reads {
		e := want[r.Index]
		if r.OK != e.ok || (r.OK && r.Value != e.value) {
			t.Fatalf("read at op %d = (%d,%v), want (%d,%v)",
				r.Index, r.Value, r.OK, e.value, e.ok)
		}
		nReads++
	}
	expected := 0
	for _, op := range w.Ops {
		if op.Kind == workload.Read {
			expected++
		}
	}
	if nReads != expected {
		t.Fatalf("collected %d read results, stream has %d reads", nReads, expected)
	}
}

// TestBatcherSemantics exercises the blocking API: replaced/deleted flags
// and read-your-writes for a single caller.
func TestBatcherSemantics(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()

	k := []byte("alpha\x00")
	if _, ok := e.Get(k); ok {
		t.Fatal("get on empty store")
	}
	if e.Put(k, 7) {
		t.Fatal("first put reported replaced")
	}
	if v, ok := e.Get(k); !ok || v != 7 {
		t.Fatalf("get = (%d,%v)", v, ok)
	}
	if !e.Put(k, 8) {
		t.Fatal("second put did not report replaced")
	}
	if v, ok := e.Get(k); !ok || v != 8 {
		t.Fatalf("get = (%d,%v)", v, ok)
	}
	if !e.Delete(k) {
		t.Fatal("delete missed existing key")
	}
	if e.Delete(k) {
		t.Fatal("double delete reported deleted")
	}
	if _, ok := e.Get(k); ok {
		t.Fatal("get after delete")
	}
}

// TestBatcherConcurrentStress is the -race stress test: concurrent mixed
// read/write workloads through the Batcher, cross-checked against
// per-producer sequential map replays. Producers own disjoint key
// namespaces (exact check) and also hammer a small shared hot set
// (contention; value must be one that some producer wrote).
func TestBatcherConcurrentStress(t *testing.T) {
	e := New(Config{Workers: 4, BatchSize: 64})
	defer e.Close()

	const G, opsPerG, ownKeys = 8, 3000, 64
	sharedVals := make(map[uint64]bool)
	var sharedMu sync.Mutex

	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 100))
			local := map[string]uint64{}
			for i := 0; i < opsPerG; i++ {
				if rng.Intn(8) == 0 {
					// Shared hot keys: contended across producers.
					k := []byte(fmt.Sprintf("shared:%d\x00", rng.Intn(4)))
					v := uint64(g)<<32 | uint64(i)
					sharedMu.Lock()
					sharedVals[v] = true
					sharedMu.Unlock()
					e.Put(k, v)
					continue
				}
				k := []byte(fmt.Sprintf("g%d:key%02d\x00", g, rng.Intn(ownKeys)))
				ks := string(k)
				switch rng.Intn(4) {
				case 0, 1:
					want, wantOK := local[ks]
					got, ok := e.Get(k)
					if ok != wantOK || (ok && got != want) {
						t.Errorf("g%d: get %q = (%d,%v), want (%d,%v)",
							g, ks, got, ok, want, wantOK)
						return
					}
				case 2:
					v := uint64(g*opsPerG + i)
					_, existed := local[ks]
					if replaced := e.Put(k, v); replaced != existed {
						t.Errorf("g%d: put %q replaced=%v want %v", g, ks, replaced, existed)
						return
					}
					local[ks] = v
				default:
					_, existed := local[ks]
					if deleted := e.Delete(k); deleted != existed {
						t.Errorf("g%d: delete %q deleted=%v want %v", g, ks, deleted, existed)
						return
					}
					delete(local, ks)
				}
			}
			// Final check of the owned namespace.
			for ks, want := range local {
				if got, ok := e.Get([]byte(ks)); !ok || got != want {
					t.Errorf("g%d: final %q = (%d,%v), want %d", g, ks, got, ok, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// Shared keys hold some written value.
	for i := 0; i < 4; i++ {
		k := []byte(fmt.Sprintf("shared:%d\x00", i))
		if v, ok := e.Get(k); ok && !sharedVals[v] {
			t.Fatalf("shared key %q holds unknown value %d", k, v)
		}
	}
}

// TestRunConcurrentWithBatcher mixes stream execution and blocking calls
// on disjoint namespaces; run under -race.
func TestRunConcurrentWithBatcher(t *testing.T) {
	e := New(Config{Workers: 2, ChunkSize: 32})
	defer e.Close()
	w := testWorkload(t, 1000, 10000, 43)
	e.Load(w.Keys, nil)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			k := []byte(fmt.Sprintf("side:%03d\x00", i%100))
			e.Put(k, uint64(i))
			if v, ok := e.Get(k); !ok || v != uint64(i) {
				t.Errorf("side channel RYW broke: got (%d,%v) want %d", v, ok, i)
				return
			}
		}
	}()
	e.Run(w.Ops)
	<-done

	ref := replay(w)
	for ks, want := range ref {
		if got, ok := e.Tree().Get([]byte(ks)); !ok || got != want {
			t.Fatalf("key %q = (%d,%v), want %d", ks, got, ok, want)
		}
	}
}

// TestCloseThenUse: after Close, the Batcher and Run fall back to direct
// execution instead of deadlocking.
func TestCloseThenUse(t *testing.T) {
	e := New(Config{Workers: 2})
	k := []byte("k\x00")
	e.Put(k, 1) // starts the pipeline
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if v, ok := e.Get(k); !ok || v != 1 {
		t.Fatalf("post-close get = (%d,%v)", v, ok)
	}
	e.Put(k, 2)
	res := e.Run([]workload.Op{{Kind: workload.Read, Key: k}})
	if res.Ops != 1 {
		t.Fatal("post-close run did not execute")
	}
	if v, _ := e.Get(k); v != 2 {
		t.Fatalf("post-close state wrong: %d", v)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
}

// settle waits until the workers have finished the batches behind every
// completed operation: a batch publishes its counters after it has answered
// its last task, so Run or Wait can return a moment before they land.
func settle(e *Engine) {
	for e.InflightOps() != 0 {
		runtime.Gosched()
	}
}

// TestCoalescingCounters: a hot-key stream must coalesce and populate the
// shortcut table. NoSteal keeps the hot bucket on the worker whose table
// the first run populated.
func TestCoalescingCounters(t *testing.T) {
	e := New(Config{Workers: 2, BatchSize: 1024, ChunkSize: 1024, NoSteal: true})
	defer e.Close()
	// A few sibling keys so the tree has internal nodes (a bare-leaf root
	// admits no shortcut).
	e.Load([][]byte{
		[]byte("hoa\x00"), []byte("hob\x00"), []byte("hoc\x00"),
	}, nil)
	hot := []byte("hot\x00")
	ops := make([]workload.Op, 0, 2048)
	for i := 0; i < 1024; i++ {
		if i%2 == 0 {
			ops = append(ops, workload.Op{Kind: workload.Write, Key: hot, Value: uint64(i)})
		} else {
			ops = append(ops, workload.Op{Kind: workload.Read, Key: hot})
		}
	}
	e.Run(ops)
	settle(e)
	if c := e.Metrics().Get("coalesced_ops"); c == 0 {
		t.Fatal("hot-key stream produced no coalescing")
	}
	if v, ok := e.Tree().Get(hot); !ok || v != 1022 {
		t.Fatalf("final hot value = (%d,%v), want 1022", v, ok)
	}
	e.Run(ops) // second run should hit the shortcut table
	settle(e)
	if h := e.Metrics().Get("shortcut_hit"); h == 0 {
		t.Fatal("no shortcut hits on re-run")
	}
}

// TestKeyBufferReuseAfterWait: a producer may overwrite its key buffer the
// moment a token resolves. The Shortcut_Table entry the write created must
// keep matching its key (it is verified against the leaf's own key, not
// the producer's bytes), so another goroutine's read of that key is still
// a shortcut hit.
func TestKeyBufferReuseAfterWait(t *testing.T) {
	e := New(Config{Workers: 2, NoSteal: true})
	e.Load([][]byte{
		[]byte("kr:aaaaa\x00"), []byte("kr:bbbbb\x00"), []byte("kr:ccccc\x00"),
	}, nil)
	keyA, keyB := []byte("kr:alpha\x00"), []byte("kr:bravo\x00")

	buf := append([]byte(nil), keyA...)
	e.PutAsync(buf, 41).Wait()
	copy(buf, keyB) // the token resolved: the buffer is the producer's again

	done := make(chan struct{})
	go func() {
		defer close(done)
		if v, ok := e.Get(keyA); !ok || v != 41 {
			t.Errorf("Get(A) after the producer reused its buffer = (%d,%v), want (41,true)", v, ok)
		}
	}()
	<-done
	if err := e.Close(); err != nil { // drain: the last batch's counters flush
		t.Fatal(err)
	}
	if hits := e.Metrics().Get(metrics.CtrShortcutHit); hits != 1 {
		t.Fatalf("shortcut_hit = %d, want 1: the entry stopped matching its key", hits)
	}
}

// TestKeyBufferReuseRace is the two-producer variant, for -race: one
// producer drives inserts, overwrites and deletes out of a single key
// buffer it rewrites after every Wait, while a second reads the key they
// share — so the buffer's owner and the reader meet in the same groups.
// The worker must never read a task's key after that task completed.
func TestKeyBufferReuseRace(t *testing.T) {
	e := New(Config{Workers: 2, NoSteal: true})
	defer e.Close()
	e.Load([][]byte{
		[]byte("kr:aaaaa\x00"), []byte("kr:bbbbb\x00"), []byte("kr:ccccc\x00"),
	}, nil)
	keyA := []byte("kr:alpha\x00")

	const rounds = 2000
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			if v, ok := e.Get(keyA); ok {
				if v < last {
					t.Errorf("Get(A) went backwards: %d after %d", v, last)
					return
				}
				last = v
			}
		}
	}()
	buf := make([]byte, len(keyA))
	for i := 1; i <= rounds; i++ {
		copy(buf, keyA)
		e.PutAsync(buf, uint64(i)).Wait()
		copy(buf, fmt.Sprintf("kr:%05d\x00", i))
		if _, replaced := e.PutAsync(buf, uint64(i)).Wait(); replaced {
			t.Fatalf("round %d: insert of a fresh key reported replaced", i)
		}
		if _, present := e.DeleteAsync(buf).Wait(); !present {
			t.Fatalf("round %d: delete missed the key just inserted", i)
		}
		if i%3 == 0 {
			copy(buf, keyA)
			e.DeleteAsync(buf).Wait()
		}
	}
	close(stop)
	<-done
	if n := e.Len(); n != 4 { // the three loaded keys plus A
		t.Fatalf("Len = %d, want 4", n)
	}
}
