package olc

import (
	"fmt"
	"testing"
)

// Batch-descent microbenchmarks: the same 64-key bucket batch resolved
// through one shared LocateBatch-backed call versus 64 independent root
// descents. Run via `make bench-batch`.

const batchBenchKeys = 64

// benchBatchTree loads a tree shaped like one combine bucket's keyspace:
// a shared stem, then per-key suffixes wide enough to build multi-level
// interior structure.
func benchBatchTree(b *testing.B) (*Tree, [][]byte) {
	b.Helper()
	tr := New(nil)
	var keys [][]byte
	for i := 0; i < 4096; i++ {
		k := []byte(fmt.Sprintf("ip:%02x:%04d", i%256, i))
		tr.Put(k, uint64(i))
		if i%(4096/batchBenchKeys) == 0 {
			keys = append(keys, k)
		}
	}
	return tr, keys[:batchBenchKeys]
}

func BenchmarkBatchDescentGet(b *testing.B) {
	tr, keys := benchBatchTree(b)
	out := make([]BatchResult, len(keys))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.GetBatch(keys, out)
	}
	b.ReportMetric(float64(len(keys)), "keys/batch")
}

func BenchmarkBatchDescentGetPerOp(b *testing.B) {
	tr, keys := benchBatchTree(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range keys {
			tr.Get(k)
		}
	}
	b.ReportMetric(float64(len(keys)), "keys/batch")
}

func BenchmarkBatchDescentApply(b *testing.B) {
	tr, keys := benchBatchTree(b)
	ops := make([]BatchOp, len(keys))
	for i, k := range keys {
		kind := BatchGet
		if i%2 == 0 {
			kind = BatchPut
		}
		ops[i] = BatchOp{Kind: kind, Key: k, Value: uint64(i)}
	}
	out := make([]BatchResult, len(ops))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.ApplyBatch(ops, out)
	}
	b.ReportMetric(float64(len(ops)), "keys/batch")
}

func BenchmarkBatchDescentApplyPerOp(b *testing.B) {
	tr, keys := benchBatchTree(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, k := range keys {
			if j%2 == 0 {
				tr.Put(k, uint64(j))
			} else {
				tr.Get(k)
			}
		}
	}
	b.ReportMetric(float64(len(keys)), "keys/batch")
}

// BenchmarkBatchDescentAnchored measures the additional saving from
// starting the shared descent at a cached interior anchor (the P-CTT
// hotset's read path) instead of the root.
func BenchmarkBatchDescentAnchored(b *testing.B) {
	tr, keys := benchBatchTree(b)
	locs := make([]BatchLoc, len(keys))
	idx := make([]int, len(keys))
	st, ok := tr.LocateBatch(Ref{}, 16, keys, locs, idx)
	if !ok || !st.Anchor.Valid() {
		b.Skip("no common anchor for this key shape")
	}
	anchor := st.Anchor
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tr.LocateBatch(anchor, 16, keys, locs, idx); !ok {
			b.Fatal("anchor went stale")
		}
	}
	b.ReportMetric(float64(len(keys)), "keys/batch")
}
