package pctt

import (
	"bytes"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/olc"
	"repro/internal/workload"
)

// worker is one SOU analogue: a goroutine executing combine buckets with a
// private Shortcut_Table. All fields are goroutine-local except wake,
// sleeping, and ops (the cross-worker coordination points).
type worker struct {
	e  *Engine
	id int

	// shortcuts is the private Shortcut_Table: key hash -> leaf reference,
	// an open-addressed flat table (see sctable.go). Leaf refs are the
	// strongest shortcut the tree offers — two atomic loads instead of a
	// full radix descent — and stay valid from the key's insert to its
	// delete. Keying by the hash carried in the task keeps string hashing
	// off the hot path; each hit verifies the leaf's own key (collisions
	// overwrite, last wins). The table clears wholesale past shortcutCap
	// (epoch eviction). When a bucket is stolen, the thief's table simply
	// misses and re-populates — the lazy Shortcut_Table migration noted in
	// steal.go.
	shortcuts *scTable

	// hotset is the private hot-node residency set (software Tree_buffer):
	// per-bucket interior anchors, ranked by bucket population under
	// value-aware replacement, that batch descents start from instead of
	// the root. nil when Config.HotsetCap disables the feature. Like the
	// Shortcut_Table it migrates lazily on steals (the thief misses and
	// re-derives anchors from its own batch descents).
	hotset *hotset

	// Latency histograms (RecordLatency): end-to-end, queue wait (submit
	// until the op's trigger batch began), and execute (batch begin until
	// the op completed). queue + execute == total per sample. histMu
	// covers them: only sampled operations observe (every 16th at most),
	// and holding it during Engine.mergeHistograms is what lets the obs
	// layer scrape latency quantiles from a live pipeline.
	histMu    sync.Mutex
	histTotal *metrics.Histogram
	histQueue *metrics.Histogram
	histExec  *metrics.Histogram

	// ops counts operations this worker executed (including stolen and
	// handed-off buckets); the skewed-load balance tests read it.
	ops atomic.Int64

	// beats is the progress heartbeat: bumped once per completed trigger
	// batch. The obs layer exports it as the dcart_pctt_worker_heartbeat
	// gauge; a heartbeat that stops advancing while occupancy gauges are
	// non-zero is the health engine's stalled signal.
	beats atomic.Uint64

	// wake unparks the worker; sleeping gates the producers' wake sends.
	wake     chan struct{}
	sleeping atomic.Bool

	// batch scratch, reused across batches. The trigger batch is the
	// gathered chunks themselves — tasks execute in place and are never
	// copied out of the chunk a producer filled (the pipeline's only task
	// copy is the producer's construction into that chunk).
	bchunks   []*chunk // the trigger batch: chunks gathered from ready buckets
	bchunkBkt []int32  // bucket ID per gathered chunk (parallel to bchunks)
	bn        int      // total operations across bchunks
	runIDs    []int32  // buckets whose backlogs the current batch gathered
	groups    []group
	gtab      []gslot // open-addressed key-hash -> group index table
	pending   []*task // write tasks awaiting the group's combined flush

	// locate-phase scratch (reused across batches): the scTable-miss groups
	// of the bucket currently being located, their keys, and the per-key
	// locations and sort permutation of one shared LocateBatch descent.
	lgroups []*group
	lkeys   [][]byte
	llocs   []olc.BatchLoc
	lidx    []int

	// execStart is the unix-nano begin of the current trigger batch
	// (latency attribution point between queue wait and execute).
	// groupEnd/locateEnd subdivide the batch further — grouping done,
	// traverse (locateGroups) done — giving traced and journaled spans the
	// combine/traverse/trigger stage breakdown.
	execStart int64
	groupEnd  int64
	locateEnd int64

	// c accumulates counter deltas batch-locally; execBatch flushes it to
	// the shared metrics.Set once per batch (an Inc per operation would put
	// a map lookup plus an atomic RMW on the hot path).
	c batchCounters
}

// batchCounters mirrors the counters the execute phases touch.
type batchCounters struct {
	shortcutHit, shortcutMiss, maintain  int64
	coalesced, opsRead, opsWrite         int64
	hotsetHit, hotsetMiss                int64
	hotsetEvict, hotsetInvalid, fallback int64
}

// group is a set of same-key operations coalesced within one batch, in
// arrival order, referenced in place in their gathered chunks. hash is the
// key's unprobed hash carried in the task, reused for the Shortcut_Table.
// bucket, scHit/scLeaf, located, and loc are filled by the locate phase
// (locateGroups) before execGroup runs.
type group struct {
	ops  []*task
	hash uint64
	// bucket is the combine bucket the group's key belongs to (the unit the
	// locate phase shares descents and anchors across).
	bucket int32
	// scHit/scLeaf: the Shortcut_Table resolved this key to a live leaf.
	scHit  bool
	scLeaf olc.LeafRef
	// located: the shared batch descent resolved this key; loc carries its
	// leaf (zero when absent at locate time) and insert anchor.
	located bool
	loc     olc.BatchLoc
}

// gslot is one open-addressed grouping-table slot; gi is the group index
// plus one (0 means empty). A flat probe table beats a Go map here: the
// part of it a batch uses is cleared with one memclr and probed with two
// compares per op on the execution critical path.
type gslot struct {
	hash uint64
	gi   int32
}

func newWorker(e *Engine, id int) *worker {
	w := &worker{
		e:         e,
		id:        id,
		shortcuts: newSCTable(),
		hotset:    newHotset(e.cfg.HotsetCap),
		wake:      make(chan struct{}, 1),
	}
	// Size the grouping table to a power of two holding the largest
	// possible batch (BatchSize plus one chunk of gather overshoot) at
	// <=50% load.
	n := 1
	for n < 2*(e.cfg.BatchSize+e.cfg.ChunkSize) {
		n <<= 1
	}
	w.gtab = make([]gslot, n)
	w.resetHistograms()
	return w
}

// resetHistograms replaces the latency histograms. Safe only while the
// pipeline is quiescent and the caller synchronizes with new submissions
// (Engine.Reset's contract).
func (w *worker) resetHistograms() {
	w.histMu.Lock()
	w.histTotal = metrics.NewHistogram()
	w.histQueue = metrics.NewHistogram()
	w.histExec = metrics.NewHistogram()
	w.histMu.Unlock()
}

// hashKey is FNV-1a; grouping probes on the (astronomically rare) collision
// so the hash only has to be good, not perfect. It is computed once at
// submit time and carried in the task (see BenchmarkGroupingHash* for the
// measured saving on the worker's critical path).
func hashKey(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// HashKey exposes the pipeline's end-to-end key hash — the trace ID every
// engine span carries. Layers above the engine (the kvserver wire path)
// stamp their spans with the same hash so one operation's spans correlate
// across layers in the /debug/traces?id= waterfall.
func HashKey(key []byte) uint64 { return hashKey(key) }

// loop is the worker body. Each iteration assembles one trigger batch by
// GATHERING every ready bucket on its own ring until the batch holds
// BatchSize operations or the ring runs dry: whatever producers queued
// while the previous batch executed is this batch, and nothing waits for
// more. Executing many buckets' backlogs as a single trigger batch is what
// amortizes the per-batch costs (counter flush, timestamps, scheduler
// wakeups) over every ready operation rather than per bucket. Only when
// nothing local is ready does the worker steal from the most-backlogged
// peer, and only when that fails does it park.
func (w *worker) loop() {
	defer w.e.wg.Done()
	for {
		if w.e.closing.Load() {
			w.drain()
			return
		}
		w.bchunks = w.bchunks[:0]
		w.bchunkBkt = w.bchunkBkt[:0]
		w.bn = 0
		w.runIDs = w.runIDs[:0]
		for w.bn < w.e.cfg.BatchSize {
			id, ok := w.e.rings[w.id].pop()
			if !ok {
				break
			}
			w.collect(id, false)
		}
		if w.bn == 0 && !w.e.cfg.NoSteal {
			// Steal path, dampened: a backlogged peer ring does not yet
			// mean the peer is overloaded — on a timeshared processor it
			// may simply not have been scheduled since the producer filled
			// its ring. Yield once; only a backlog that survives the yield
			// (the owner really is behind) is worth stealing. Then gather
			// whole buckets — at most half the queued buckets, classic
			// work-stealing etiquette that leaves the victim productive
			// and keeps bucket ownership from ping-ponging.
			if victim := w.e.stealVictim(w.id); victim != nil {
				runtime.Gosched()
				if w.e.rings[w.id].length() == 0 {
					quota := (int(victim.length()) + 1) / 2
					for w.bn < w.e.cfg.BatchSize && quota > 0 {
						id, ok := victim.pop()
						if !ok {
							break
						}
						quota--
						w.collect(id, true)
					}
				}
			}
		}
		if w.bn > 0 {
			w.finishBatch()
			continue
		}
		w.park()
	}
}

// park blocks until new work is signaled.
func (w *worker) park() {
	w.sleeping.Store(true)
	w.e.setIdle(w.id, true)
	defer func() {
		w.e.setIdle(w.id, false)
		w.sleeping.Store(false)
	}()
	if w.e.rings[w.id].length() > 0 || w.e.closing.Load() {
		return // work (or shutdown) raced in before we were advertised
	}
	<-w.wake
}

// forceWake unparks the worker unconditionally (shutdown path).
func (w *worker) forceWake() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// drain runs the shutdown protocol: execute everything reachable (own
// ring, any peer's ring) until no operation is in flight anywhere, then
// exit.
func (w *worker) drain() {
	e := w.e
	for {
		if id, ok := e.rings[w.id].pop(); ok {
			w.runBucket(id, false)
			continue
		}
		stole := false
		for i := range e.rings {
			if i == w.id {
				continue
			}
			if id, ok := e.rings[i].pop(); ok {
				w.runBucket(id, true)
				stole = true
				break
			}
		}
		if stole {
			continue
		}
		if e.inflight.Load() == 0 {
			return
		}
		runtime.Gosched() // a peer is mid-execution; its requeue will surface
	}
}

// collect moves one popped bucket's backlog into the batch under assembly
// and marks the bucket running. The take is a FIFO prefix of whole chunks,
// stopped once the batch reaches BatchSize (so it may overshoot by at most
// one chunk); any remainder stays pending and finishBatch re-queues it.
// Only chunk pointers move — the tasks stay in place in their chunks and
// execute there; the chunks are recycled after the batch completes. stolen
// records the ownership handoff for a bucket taken from a peer's ring.
func (w *worker) collect(id int32, stolen bool) {
	e := w.e
	b := &e.buckets[id]
	b.mu.Lock()
	if stolen && b.owner != int32(w.id) {
		b.owner = int32(w.id)
	}
	if b.nops == 0 {
		b.state.Store(bIdle) // defensive: never strand the state machine
		b.mu.Unlock()
		return
	}
	space := e.cfg.BatchSize - w.bn
	k, taken := 0, 0
	for k < len(b.chunks) && taken < space {
		taken += len(b.chunks[k].t)
		k++
	}
	w.bchunks = append(w.bchunks, b.chunks[:k]...)
	for i := 0; i < k; i++ {
		w.bchunkBkt = append(w.bchunkBkt, id)
	}
	rest := copy(b.chunks, b.chunks[k:])
	for i := rest; i < len(b.chunks); i++ {
		b.chunks[i] = nil
	}
	b.chunks = b.chunks[:rest]
	b.nops -= taken
	b.state.Store(bRunning)
	if b.waiters > 0 {
		b.cond.Broadcast()
	}
	b.mu.Unlock()
	if stolen {
		e.ms.Inc(metrics.CtrBucketSteals)
	}
	w.bn += taken
	w.runIDs = append(w.runIDs, id)
}

// finishBatch executes the assembled trigger batch, then walks the
// gathered buckets: one whose backlog refilled during execution re-queues
// (possibly handing off to a parked peer), the rest return to idle.
func (w *worker) finishBatch() {
	e := w.e
	if h := e.cfg.BatchHook; h != nil {
		// Before execution and before the heartbeat bump: a blocking hook
		// freezes this worker with its batch's ops still counted in flight.
		h(w.id)
	}
	w.execBatch()
	w.beats.Add(1)
	e.inflight.Add(-int64(w.bn))
	for _, c := range w.bchunks {
		e.putChunk(c)
	}
	clear(w.bchunks) // an idle worker, like an idle bucket, pins no pooled chunk
	for _, id := range w.runIDs {
		b := &e.buckets[id]
		b.mu.Lock()
		if b.nops == 0 {
			b.state.Store(bIdle)
			b.mu.Unlock()
			continue
		}
		b.state.Store(bQueued)
		b.mu.Unlock()
		w.requeue(id)
	}
}

// runBucket executes a single bucket as its own trigger batch (shutdown
// drain path; the main loop gathers several buckets per batch instead).
func (w *worker) runBucket(id int32, stolen bool) {
	w.bchunks = w.bchunks[:0]
	w.bchunkBkt = w.bchunkBkt[:0]
	w.bn = 0
	w.runIDs = w.runIDs[:0]
	w.collect(id, stolen)
	if w.bn > 0 || len(w.runIDs) > 0 {
		w.finishBatch()
	}
}

// execBatch executes one trigger batch: group by key (first-appearance
// order across the batch, arrival order within a group, reusing the hash
// carried in each task), then execute each group. Tasks are referenced in
// place in their gathered chunks — grouping produces *task lists, not
// copies.
func (w *worker) execBatch() {
	stamping := w.e.cfg.RecordLatency || w.e.cfg.Tracer != nil || w.e.cfg.Journal != nil
	if stamping {
		w.execStart = time.Now().UnixNano()
	}

	w.groups = w.groups[:0]
	// The batch uses the table's first power-of-two slots past 2*bn (under
	// 50% load): a small batch must not pay to clear a table sized for the
	// largest.
	gtab := w.gtab[:1<<bits.Len(uint(2*w.bn))]
	clear(gtab) // one memclr; gslot has no pointers
	mask := uint64(len(gtab) - 1)
	for ci, c := range w.bchunks {
		bkt := w.bchunkBkt[ci]
		for i := range c.t {
			t := &c.t[i]
			pos := t.hash & mask
			for {
				s := &gtab[pos]
				if s.gi == 0 {
					s.hash = t.hash
					s.gi = int32(len(w.groups)) + 1
					// Grow in place so per-group slices are reused across
					// batches.
					if len(w.groups) < cap(w.groups) {
						w.groups = w.groups[:len(w.groups)+1]
					} else {
						w.groups = append(w.groups, group{})
					}
					g := &w.groups[len(w.groups)-1]
					g.ops = append(g.ops[:0], t)
					g.hash = t.hash
					g.bucket = bkt
					g.scHit, g.scLeaf = false, olc.LeafRef{}
					g.located, g.loc = false, olc.BatchLoc{}
					break
				}
				if s.hash == t.hash {
					g := &w.groups[s.gi-1]
					if bytes.Equal(g.ops[0].key, t.key) {
						g.ops = append(g.ops, t)
						break
					}
					// Same hash, different key: fall through and keep probing.
				}
				pos = (pos + 1) & mask
			}
		}
	}
	if stamping {
		w.groupEnd = time.Now().UnixNano()
	}
	w.locateGroups()
	if stamping {
		w.locateEnd = time.Now().UnixNano()
	}
	for gi := range w.groups {
		w.execGroup(&w.groups[gi])
	}
	w.ops.Add(int64(w.bn))
	w.flushCounters()
}

// locateGroups is the traverse phase run once per trigger batch: resolve
// every group's target location before execution. Groups whose key the
// Shortcut_Table already maps to a live leaf are done immediately; the
// remainder of each bucket shares ONE lock-coupled batch descent
// (olc.LocateBatch) — sorted keys, each tree node visited and each node
// lock acquired once per bucket-batch rather than once per key — started
// from the bucket's cached hot-node anchor when the hotset holds one.
//
// Chunks are gathered bucket by bucket and groups form in first-appearance
// order, so w.groups is bucket-contiguous; the phase walks it in runs.
func (w *worker) locateGroups() {
	i := 0
	for i < len(w.groups) {
		j := i
		bkt := w.groups[i].bucket
		for j < len(w.groups) && w.groups[j].bucket == bkt {
			j++
		}
		w.locateBucket(bkt, w.groups[i:j])
		i = j
	}
}

// locateBucket resolves one bucket's groups (see locateGroups).
func (w *worker) locateBucket(bkt int32, groups []group) {
	w.lgroups = w.lgroups[:0]
	w.lkeys = w.lkeys[:0]
	nops := 0
	for gi := range groups {
		g := &groups[gi]
		nops += len(g.ops)
		if s := w.shortcuts.get(g.hash); s != nil && bytes.Equal(s.leaf.Key(), g.ops[0].key) {
			g.scHit, g.scLeaf = true, s.leaf // hash collision => miss
			w.c.shortcutHit++
			continue
		}
		w.c.shortcutMiss++
		w.lgroups = append(w.lgroups, g)
		w.lkeys = append(w.lkeys, g.ops[0].key)
	}
	if len(w.lgroups) == 0 {
		return // every key shortcut to its leaf; nothing to descend for
	}

	// Hot-node residency: start the shared descent from the bucket's cached
	// interior anchor when it can serve every key of this batch (each key
	// must carry the anchor's path bytes — a key that never loaded the
	// bucket's common prefix forces a root descent for the whole batch).
	tree := w.e.tree
	var from olc.Ref
	anchored := false
	if w.hotset != nil {
		if ref, path, ok := w.hotset.get(int(bkt)); ok && covers(w.lkeys, ref.Depth(), path) {
			from, anchored = ref, true
		} else {
			w.c.hotsetMiss++
		}
	}
	if cap(w.llocs) < len(w.lkeys) {
		w.llocs = make([]olc.BatchLoc, len(w.lkeys))
		w.lidx = make([]int, len(w.lkeys))
	}
	locs := w.llocs[:len(w.lkeys)]
	st, ok := tree.LocateBatch(from, w.e.anchorMaxDepth(), w.lkeys, locs, w.lidx)
	if !ok {
		// The anchor's node went obsolete under a structural change: drop
		// the entry and redo the descent from the root.
		w.c.hotsetInvalid++
		w.hotset.invalidate(int(bkt))
		from, anchored = olc.Ref{}, false
		st, _ = tree.LocateBatch(from, w.e.anchorMaxDepth(), w.lkeys, locs, w.lidx)
	}
	if anchored {
		w.c.hotsetHit++
	}
	for k, g := range w.lgroups {
		g.located, g.loc = true, locs[k]
	}
	if w.hotset != nil && st.Anchor.Valid() {
		// Credit the whole bucket-batch population (shortcut hits included)
		// to the anchor's value — the paper's bucket-population ranking.
		if w.hotset.put(int(bkt), st.Anchor, w.lkeys[0], int64(nops)) {
			w.c.hotsetEvict++
		}
	}
}

// execGroup triggers a group's operations together against the location
// the traverse phase resolved (Shortcut_Table leaf, batch-descent leaf, or
// batch-descent insert anchor): reads beyond the first are served from the
// group's running value, consecutive writes combine into a single tree put
// (one version-lock acquisition per write burst), and inserts re-enter the
// tree at the key's located interior node rather than the root.
//
// Safety: the bucket state machine guarantees this worker is the only one
// executing the group's key right now (a bucket runs on one worker at a
// time, and a key maps to one bucket), so no other actor can change the
// key's binding between the locate phase and the group's operations.
//
// Key bytes belong to the producers, who may reuse a key buffer the moment
// its token resolves. A task's key is therefore read only before that task
// completes: an insert takes the key of a write still pending, a read that
// finds its cached leaf dead re-locates before it replies, and the
// Shortcut_Table maintenance at the end needs no key at all.
func (w *worker) execGroup(g *group) {
	tree := w.e.tree
	bkt := int(g.bucket)

	leaf, hasRef := g.scLeaf, g.scHit
	if !hasRef && g.loc.Leaf.Valid() {
		leaf, hasRef = g.loc.Leaf, true
	}
	refUsable := hasRef
	// cache: leaf is not the reference the Shortcut_Table holds for this
	// key (it came from the batch descent, or was re-located below), so a
	// live one is stored when the group ends.
	cache := !g.scHit

	// Running per-key state: once haveCur is set, cur/curFound track the
	// key's logical value through the group without touching the tree.
	// locAbsent records a batch-proven absence: the shared descent found no
	// leaf, and nobody else may bind this key while the bucket runs here,
	// so a leading read needs no descent of its own.
	var cur uint64
	curFound := false
	haveCur := false
	locAbsent := g.located && !hasRef
	dirty := false // cur holds an unflushed write
	w.pending = w.pending[:0]

	// flush applies the combined pending writes as one tree put and
	// answers their replies (first write reports the pre-group presence,
	// coalesced followers report replaced=true).
	flush := func() {
		if !dirty {
			return
		}
		// A usable leaf ref means the key is live, so the combined write is
		// an in-place overwrite (replaced=true by construction).
		replaced := true
		if refUsable && !tree.PutLeaf(leaf, cur) {
			refUsable = false
		}
		if !refUsable {
			// Insert: re-enter the tree at the batch descent's insert
			// anchor; only a structural change at the anchor itself (or no
			// anchor at all) pays a full root descent. The new leaf's
			// reference serves the rest of the group and the table.
			key := w.pending[0].key
			done := false
			if r := g.loc.Ins; r.Valid() {
				replaced, done = tree.PutAt(r, key, cur)
			}
			if !done {
				replaced = tree.Put(key, cur)
				w.c.fallback++
			}
			leaf, refUsable = tree.LocateLeaf(key)
			cache = true
		}
		if n := len(w.pending) - 1; n > 0 {
			// Coalesced writes beyond the first: counted as ops that
			// needed no tree access.
			w.c.coalesced += int64(n)
			w.c.opsWrite += int64(n)
		}
		for i, t := range w.pending {
			w.complete(t, taskResult{found: replaced || i > 0}, bkt)
		}
		w.pending = w.pending[:0]
		dirty = false
	}

	for _, t := range g.ops {
		switch t.kind {
		case workload.Read:
			if !haveCur {
				if refUsable {
					if v, ok := tree.GetLeaf(leaf); ok {
						cur, curFound = v, true
					} else {
						refUsable = false
					}
				}
				switch {
				case refUsable:
				case locAbsent:
					// The shared descent proved the key absent; the read is
					// answered from that result, no own descent.
					w.c.opsRead++
				default:
					// The cached leaf is dead: the key was deleted, and
					// perhaps re-inserted, while another worker owned the
					// bucket. One descent for the value, one for a fresh
					// reference.
					if cur, curFound = tree.Get(t.key); curFound {
						leaf, refUsable = tree.LocateLeaf(t.key)
						cache = true
					}
				}
				haveCur = true
			} else {
				// Served from the already-located value: a coalesced read.
				w.c.coalesced++
				w.c.opsRead++
			}
			w.complete(t, taskResult{value: cur, found: curFound}, bkt)
		case workload.Write:
			cur, curFound, haveCur = t.value, true, true
			dirty = true
			w.pending = append(w.pending, t)
		case workload.Delete:
			// Deletes restructure; flush combined writes first, then go
			// direct (mirrors internal/ctt's discipline).
			flush()
			deleted := tree.Delete(t.key)
			cur, curFound, haveCur = 0, false, true
			refUsable = false // the key's leaf, if it had one, is obsolete now
			w.complete(t, taskResult{found: deleted}, bkt)
		}
	}
	flush()

	// A live leaf the Shortcut_Table does not hold becomes an entry, at no
	// descent: the batch descent or the insert above already produced the
	// reference. (A key that ended the group deleted keeps its stale entry;
	// see scTable.)
	if refUsable && cache {
		w.shortcuts.put(g.hash, leaf)
		w.shortcuts.maintain()
		w.c.maintain++
	}
}

// flushCounters publishes the batch's accumulated counter deltas.
func (w *worker) flushCounters() {
	ms := w.e.ms
	c := &w.c
	if c.shortcutHit != 0 {
		ms.Add(metrics.CtrShortcutHit, c.shortcutHit)
	}
	if c.shortcutMiss != 0 {
		ms.Add(metrics.CtrShortcutMiss, c.shortcutMiss)
	}
	if c.maintain != 0 {
		ms.Add(metrics.CtrShortcutMaintain, c.maintain)
	}
	if c.coalesced != 0 {
		ms.Add(metrics.CtrCoalesced, c.coalesced)
	}
	if c.opsRead != 0 {
		ms.Add(metrics.CtrOpsRead, c.opsRead)
	}
	if c.opsWrite != 0 {
		ms.Add(metrics.CtrOpsWrite, c.opsWrite)
	}
	if c.hotsetHit != 0 {
		ms.Add(metrics.CtrHotsetHit, c.hotsetHit)
	}
	if c.hotsetMiss != 0 {
		ms.Add(metrics.CtrHotsetMiss, c.hotsetMiss)
	}
	if c.hotsetEvict != 0 {
		ms.Add(metrics.CtrHotsetEvict, c.hotsetEvict)
	}
	if c.hotsetInvalid != 0 {
		ms.Add(metrics.CtrHotsetInvalidate, c.hotsetInvalid)
	}
	if c.fallback != 0 {
		ms.Add(metrics.CtrBatchFallbacks, c.fallback)
	}
	*c = batchCounters{}
	ms.Inc(metrics.CtrBatches)
}

// complete delivers a task's outcome: Run-mode read slot, token reply,
// completion accounting, the optional latency samples (end-to-end plus the
// queue-wait/execute split around the batch's execStart), and the sampled
// lifecycle span when the task was chosen for tracing.
func (w *worker) complete(t *task, r taskResult, bucket int) {
	if t.res != nil {
		*t.res = engine.ReadResult{Index: t.idx, Value: r.value, OK: r.found}
	}
	if t.reply != nil {
		t.reply <- r
	}
	if t.enq != 0 {
		now := time.Now().UnixNano()
		wait := w.execStart - t.enq
		if wait < 0 {
			wait = 0 // wall-clock stamps; guard against clock steps
		}
		if t.lat {
			w.histMu.Lock()
			w.histTotal.Observe(float64(now-t.enq) * 1e-9)
			w.histQueue.Observe(float64(wait) * 1e-9)
			w.histExec.Observe(float64(now-w.execStart) * 1e-9)
			w.histMu.Unlock()
		}
		if t.traced || w.e.cfg.Journal != nil {
			w.e.recordSpan(t.traced, opName(t.kind), t.hash, w.id, bucket,
				t.enq, w.execStart, now,
				engineStages(t.enq, w.execStart, w.groupEnd, w.locateEnd, now))
		}
	}
	if t.done != nil {
		t.done.Done()
	}
}

// recordSpan is the one place an engine-layer span is built: it assembles
// the span of an operation submitted at enq whose execution began at batch
// and ended at done, and hands it to the tracer (when the tracer's sampler
// chose the op) and to the slow-op journal (always, when armed). worker and
// bucket are -1 for operations that run on the caller (scans).
func (e *Engine) recordSpan(traced bool, op string, traceID uint64, worker, bucket int, enq, batch, done int64, stages []obs.Stage) {
	wait := batch - enq
	if wait < 0 {
		wait = 0 // wall-clock stamps; guard against clock steps
	}
	s := obs.Span{
		TraceID:        traceID,
		Op:             op,
		Worker:         worker,
		Bucket:         bucket,
		Migrated:       worker >= 0 && bucket%e.cfg.Workers != worker,
		SubmitUnixNano: enq,
		BatchUnixNano:  batch,
		DoneUnixNano:   done,
		QueueWaitNanos: wait,
		ExecNanos:      done - batch,
		Layer:          "engine",
		Stages:         stages,
	}
	if traced {
		e.cfg.Tracer.Record(s)
	}
	if j := e.cfg.Journal; j != nil {
		j.Observe(s)
	}
}

// engineStages builds the engine span's stage breakdown from the task's
// submit stamp and the batch's phase stamps: queue (submit until the batch
// began), combine (grouping by key), traverse (locate phase: Shortcut_Table
// plus shared descents), and trigger (group execution until this task's
// completion). The batch stamps are per-batch wall-clock reads; each stage
// start is clamped to the previous end so a clock step or a task that
// submitted mid-batch never yields a negative stage.
func engineStages(enq, execStart, groupEnd, locateEnd, done int64) []obs.Stage {
	st := make([]obs.Stage, 0, 4)
	at := enq
	push := func(name string, end int64) {
		if end < at {
			end = at
		}
		st = append(st, obs.Stage{Name: name, StartUnixNano: at, EndUnixNano: end})
		at = end
	}
	push("queue", execStart)
	push("combine", groupEnd)
	push("traverse", locateEnd)
	push("trigger", done)
	return st
}

// opName renders a task kind for trace spans.
func opName(k workload.Kind) string {
	switch k {
	case workload.Read:
		return "get"
	case workload.Write:
		return "put"
	default:
		return "delete"
	}
}
