package pctt

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/metrics"
	"repro/internal/race"
)

// TestNaturalBatching: a bucket's combine window is the time its worker was
// busy. While the only worker is held on a one-op batch, 200 more tokens
// for the same bucket pile up; on release they execute as ONE batch — no
// timer, no fill target — and every token still reports per-key FIFO
// results.
func TestNaturalBatching(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var batches atomic.Int32
	e := New(Config{Workers: 1, BatchHook: func(int) {
		if batches.Add(1) == 1 {
			close(entered)
			<-release
		}
	}})
	defer e.Close()

	keys := [][]byte{[]byte("k-a\x00"), []byte("k-b\x00"), []byte("k-c\x00")}
	for _, k := range keys[1:] {
		if e.shardOf(k) != e.shardOf(keys[0]) {
			t.Fatalf("key %q is not in key %q's bucket", k, keys[0])
		}
	}
	first := e.GetAsync(keys[0])
	<-entered // the worker holds the one-op batch; the bucket is running

	type want struct {
		value uint64
		found bool
	}
	model := map[string]uint64{}
	toks := make([]*Pending, 200)
	wants := make([]want, len(toks))
	for i := range toks {
		k := keys[i%len(keys)]
		v, had := model[string(k)]
		if i%2 == 0 {
			toks[i], wants[i] = e.PutAsync(k, uint64(i)), want{found: had}
			model[string(k)] = uint64(i)
		} else {
			toks[i], wants[i] = e.GetAsync(k), want{value: v, found: had}
		}
	}
	close(release)

	if _, found := first.Wait(); found {
		t.Fatal("the first read found a key in an empty tree")
	}
	for i, tok := range toks {
		if v, found := tok.Wait(); v != wants[i].value || found != wants[i].found {
			t.Fatalf("op %d: got (%d,%v), want %+v", i, v, found, wants[i])
		}
	}
	e.Close() // the second batch's counters are flushed once the worker exits
	if n := e.Metrics().Get(metrics.CtrBatches); n != 2 {
		t.Fatalf("%d trigger batches, want 2: the held one and one for the 200 tokens behind it", n)
	}
	if e.Metrics().Get(metrics.CtrCoalesced) == 0 {
		t.Fatal("200 operations on 3 keys in one batch coalesced nothing")
	}
}

// TestTailChunkRollover: with two-task chunks and 16-op batches, producers
// appending to a bucket's tail chunk race workers taking whole chunks out
// from under them. Four producers share a handful of buckets, each with its
// own keys and an exact sequential model of them; every token must report
// read-your-writes, and the final tree must equal the models. Run under
// -race, this is the check that a chunk a worker took is never appended to.
func TestTailChunkRollover(t *testing.T) {
	const producers, opsPer, window, keysPer = 4, 4000, 8, 12
	e := New(Config{Workers: 2, ChunkSize: 2, BatchSize: 16})
	defer e.Close()

	type want struct {
		value uint64
		found bool
	}
	models := make([]map[string]uint64, producers)
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		models[g] = map[string]uint64{}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 11))
			model := models[g]
			var toks [window]*Pending
			var wants [window]want
			settle := func(slot int) {
				if toks[slot] == nil {
					return
				}
				if v, found := toks[slot].Wait(); v != wants[slot].value || found != wants[slot].found {
					t.Errorf("producer %d: got (%d,%v), want %+v", g, v, found, wants[slot])
				}
				toks[slot] = nil
			}
			for i := 0; i < opsPer; i++ {
				slot := i % window
				settle(slot)
				// Bucket = first byte: three buckets, shared by all producers.
				ki := rng.Intn(keysPer)
				key := []byte{byte(ki % 3), byte(g), byte(ki), 0}
				v, had := model[string(key)]
				switch rng.Intn(5) {
				case 0, 1:
					toks[slot], wants[slot] = e.PutAsync(key, uint64(i)), want{found: had}
					model[string(key)] = uint64(i)
				case 2, 3:
					toks[slot], wants[slot] = e.GetAsync(key), want{value: v, found: had}
				default:
					toks[slot], wants[slot] = e.DeleteAsync(key), want{found: had}
					delete(model, string(key))
				}
			}
			for slot := range toks {
				settle(slot)
			}
		}(g)
	}
	wg.Wait()

	total := 0
	for g, model := range models {
		total += len(model)
		for k, v := range model {
			if got, ok := e.Tree().Get([]byte(k)); !ok || got != v {
				t.Fatalf("producer %d key %q = (%d,%v), want %d", g, k, got, ok, v)
			}
		}
	}
	if e.Len() != total {
		t.Fatalf("tree holds %d keys, the models %d", e.Len(), total)
	}
}

// TestAllocBudgetTailChunks: chunks and tokens recycle by pointer. With
// two-task chunks every round of 16 tokens on one bucket rolls its tail
// chunk over several times, and once the pools are warm none of it
// allocates.
func TestAllocBudgetTailChunks(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	e := New(Config{Workers: 1, ChunkSize: 2})
	defer e.Close()
	keys := [][]byte{[]byte("k-a\x00"), []byte("k-b\x00"), []byte("k-c\x00")}
	for i, k := range keys {
		e.Put(k, uint64(i))
	}
	var toks [16]*Pending
	round := func() {
		for i := range toks {
			if k := keys[i%len(keys)]; i%2 == 0 {
				toks[i] = e.PutAsync(k, uint64(i))
			} else {
				toks[i] = e.GetAsync(k)
			}
		}
		for _, tok := range toks {
			tok.Wait()
		}
	}
	for i := 0; i < 100; i++ {
		round()
	}
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Errorf("%v allocs per round of %d token ops, want 0", n, len(toks))
	}
}
