package store

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/pctt"
	"repro/internal/race"
)

// asyncStores builds one of each topology for the async-surface tests.
func asyncStores(t *testing.T) map[string]Store {
	t.Helper()
	return map[string]Store{
		"direct":  NewDirect(),
		"batched": NewBatched(pctt.Config{Workers: 2}),
		"sharded": NewSharded(2, func(int) Store {
			return NewBatched(pctt.Config{Workers: 2})
		}),
	}
}

// TestAsyncOracle drives a deterministic op sequence through the async
// surface of every topology, waiting each token immediately, and checks
// the results against a plain map oracle.
func TestAsyncOracle(t *testing.T) {
	for name, st := range asyncStores(t) {
		t.Run(name, func(t *testing.T) {
			defer st.Close()
			oracle := map[string]uint64{}
			for i := 0; i < 2000; i++ {
				key := []byte(fmt.Sprintf("k%03d", i%97))
				switch i % 5 {
				case 0, 1: // put
					v := uint64(i)
					_, replaced := st.PutAsync(key, v).Wait()
					_, had := oracle[string(key)]
					if replaced != had {
						t.Fatalf("op %d: PutAsync replaced=%v want %v", i, replaced, had)
					}
					oracle[string(key)] = v
				case 2, 3: // get
					v, found := st.GetAsync(key).Wait()
					want, had := oracle[string(key)]
					if found != had || (had && v != want) {
						t.Fatalf("op %d: GetAsync=(%d,%v) want (%d,%v)", i, v, found, want, had)
					}
				default: // delete
					_, found := st.DeleteAsync(key).Wait()
					_, had := oracle[string(key)]
					if found != had {
						t.Fatalf("op %d: DeleteAsync found=%v want %v", i, found, had)
					}
					delete(oracle, string(key))
				}
			}
			if st.Len() != len(oracle) {
				t.Fatalf("Len=%d want %d", st.Len(), len(oracle))
			}
		})
	}
}

// TestAsyncPipelinedRYW submits a window of operations per key before
// waiting any of them — the pipelined pattern — and checks per-key
// read-your-writes: a GET submitted after a PUT from the same goroutine
// must observe that PUT (or a later one from the same producer).
func TestAsyncPipelinedRYW(t *testing.T) {
	for name, st := range asyncStores(t) {
		t.Run(name, func(t *testing.T) {
			defer st.Close()
			const producers = 4
			const rounds = 300
			var wg sync.WaitGroup
			errs := make(chan error, producers)
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					key := []byte(fmt.Sprintf("ryw-p%d", p))
					type slot struct {
						tok  Pending
						want uint64
						get  bool
					}
					window := make([]slot, 0, 2*rounds)
					for i := 0; i < rounds; i++ {
						v := uint64(i + 1)
						window = append(window,
							slot{tok: st.PutAsync(key, v)},
							slot{tok: st.GetAsync(key), want: v, get: true})
					}
					for i, sl := range window {
						v, found := sl.tok.Wait()
						if sl.get && (!found || v != sl.want) {
							errs <- fmt.Errorf("producer %d slot %d: got (%d,%v) want (%d,true)",
								p, i, v, found, sl.want)
							return
						}
					}
				}(p)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

// TestCloseContract is the post-Close and ordering contract, one table over
// every topology: tokens issued before (and while) Close runs all resolve,
// blocking and async operations after Close return correct results, a
// producer reads its own PutAsync through a later GetAsync on either side
// of Close, and Close leaves no goroutine behind — Direct never starts one.
func TestCloseContract(t *testing.T) {
	topologies := []struct {
		name string
		open func() Store
	}{
		{"direct", func() Store { return NewDirect() }},
		{"batched", func() Store { return NewBatched(pctt.Config{Workers: 2}) }},
		{"sharded", func() Store {
			return NewSharded(2, func(int) Store { return NewBatched(pctt.Config{Workers: 2}) })
		}},
	}
	for _, tc := range topologies {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			st := tc.open()

			// Read-your-writes across a window of unresolved tokens.
			k := []byte("ryw")
			put, get := st.PutAsync(k, 7), st.GetAsync(k)
			if _, replaced := put.Wait(); replaced {
				t.Fatal("PutAsync of a fresh key reported replaced")
			}
			if v, found := get.Wait(); !found || v != 7 {
				t.Fatalf("GetAsync after PutAsync = (%d,%v), want (7,true)", v, found)
			}
			if _, direct := st.(*Direct); direct {
				if n := runtime.NumGoroutine(); n > before {
					t.Fatalf("Direct started goroutines: %d before, %d after async ops", before, n)
				}
			}

			// Submissions racing Close: every issued token must resolve.
			const n = 500
			toks := make(chan Pending, n)
			go func() {
				defer close(toks)
				for i := 0; i < n; i++ {
					toks <- st.PutAsync([]byte(fmt.Sprintf("drain%03d", i)), uint64(i))
				}
			}()
			closed := make(chan error, 1)
			go func() { closed <- st.Close() }()
			for tok := range toks {
				tok.Wait() // must not hang
			}
			if err := <-closed; err != nil {
				t.Fatalf("Close: %v", err)
			}
			if got := st.Len(); got != n+1 {
				t.Fatalf("Len after drain = %d, want %d: a submission racing Close was lost", got, n+1)
			}

			// After Close: async and blocking calls still answer correctly.
			if _, replaced := st.PutAsync([]byte("post"), 9).Wait(); replaced {
				t.Fatal("post-close PutAsync reported replaced for a fresh key")
			}
			if v, found := st.GetAsync([]byte("post")).Wait(); !found || v != 9 {
				t.Fatalf("post-close GetAsync = (%d,%v), want (9,true)", v, found)
			}
			if !st.Put([]byte("post"), 10) {
				t.Fatal("post-close Put did not report replaced")
			}
			if v, found := st.Get([]byte("post")); !found || v != 10 {
				t.Fatalf("post-close Get = (%d,%v), want (10,true)", v, found)
			}
			if _, found := st.DeleteAsync(k).Wait(); !found {
				t.Fatal("post-close DeleteAsync missed a pre-close key")
			}
			if st.Delete(k) {
				t.Fatal("post-close Delete found a key already deleted")
			}
			if err := st.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}

			// Close waited for its workers; give the exited goroutines a
			// moment to leave the runtime's count.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("goroutines: %d before open, %d after Close", before, n)
			}
		})
	}
}

// TestAllocBudgetBatchedAsync: once the pools are warm, a token operation on
// an existing key — submit, combine, trigger, reply, Wait — allocates
// nothing: the task lands in a pooled chunk, the token and its reply channel
// come back from one pool, and the worker's batch descent runs on scratch.
func TestAllocBudgetBatchedAsync(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	st := NewBatched(pctt.Config{Workers: 2})
	defer st.Close()
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%04d", i*37))
		st.Put(keys[i], uint64(i))
	}
	var toks [16]Pending
	round := func() {
		for i := range toks {
			if k := keys[i*4]; i%2 == 0 {
				toks[i] = st.GetAsync(k)
			} else {
				toks[i] = st.PutAsync(k, uint64(i))
			}
		}
		for i, tok := range toks {
			if _, found := tok.Wait(); !found {
				t.Fatalf("token %d: existing key reported absent", i)
			}
		}
	}
	for i := 0; i < 100; i++ {
		round() // warm the pools and grow the workers' scratch
	}
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Errorf("%v allocs per round of %d token ops, want 0", n, len(toks))
	}
}
