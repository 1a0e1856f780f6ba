package main

import (
	"bytes"
	"encoding/binary"

	"repro/internal/store"
)

// rng is splitmix64: the benchmark's own generator for stream C and the
// open-loop schedules, so neither depends on math/rand's algorithm.
type rng struct{ state uint64 }

func splitmix(seed uint64) *rng { return &rng{seed} }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return mix64(r.state)
}

// Stream C's operation mix, in parts per 100: the rest are deletes.
const (
	churnPutShare  = 49
	churnScanShare = 2
	scanPrefixLen  = 2
	scanLimit      = 16
)

// churnValue is the value stream C stores under a key, so that any pair a
// scan or the final walk returns can be checked on its own.
func churnValue(key uint64) uint64 { return mix64(key ^ 0x5ca1ab1e) }

// churner is one producer of stream C: uniform 8-byte keys, puts of keys
// never seen before, deletes of keys that are live and its own, and now
// and then a short prefix scan racing the other producer's writes. The
// stream is generated as it runs; its model is the set of live keys.
//
// Key i of producer p is mix64(seed-mixed counter): mix64 is a bijection,
// and the producers count in disjoint residue classes, so no key is ever
// produced twice and every put is an insert, every delete a removal.
type churner struct {
	p       uint64
	rng     *rng
	base    uint64 // seed-dependent offset of the key counter
	counter uint64 // keys produced so far
	live    []uint64
	// arena is where the bytes of the next keys go. The store contract
	// lets a caller reuse a key's memory once the token has resolved, but
	// the engine's Shortcut_Table keeps the caller's slice (pctt/sctable.go,
	// put), so a ring of reused buffers would race with it. Every key gets
	// eight bytes of its own, never written again, carved from arenas of
	// keysPerArena keys: the harness allocates 8 B per put or delete, and no
	// object per operation.
	arena []byte
	w     window

	scans      int64
	scanFailed int64
	scanLat    *samples
	// The scan in progress; visit is visitRow bound once, so that a scan
	// allocates nothing in the harness.
	visit  store.Visitor
	prefix [scanPrefixLen]byte
	prev   [8]byte
	rows   int
	rowsOK bool
}

func newChurner(p int, seed int64, st store.Store, capacity int) *churner {
	c := &churner{
		p:    uint64(p),
		rng:  splitmix(uint64(seed)*producers + uint64(p) + 0xc0ffee),
		base: mix64(uint64(seed)) &^ 0xffffffff, // room for 2^32 keys
		live: make([]uint64, 0, capacity),
	}
	c.w.st = st
	c.visit = c.visitRow
	return c
}

func (c *churner) newKey() uint64 {
	k := mix64(c.base + c.counter*producers + c.p)
	c.counter++
	return k
}

const keysPerArena = 8192

func (c *churner) keyBytes(key uint64) []byte {
	if len(c.arena) == 0 {
		c.arena = make([]byte, 8*keysPerArena)
	}
	b := c.arena[:8:8]
	c.arena = c.arena[8:]
	binary.BigEndian.PutUint64(b, key)
	return b
}

func (c *churner) put() {
	k := c.newKey()
	c.live = append(c.live, k)
	c.w.submit(opPut, c.keyBytes(k), churnValue(k), reply{})
}

func (c *churner) delete() {
	i := int(c.rng.next() % uint64(len(c.live)))
	k := c.live[i]
	c.live[i] = c.live[len(c.live)-1]
	c.live = c.live[:len(c.live)-1]
	c.w.submit(opDelete, c.keyBytes(k), 0, reply{found: true})
}

// scan reads up to scanLimit pairs under a random two-byte prefix and
// checks what can be checked while writers race it: ascending order, the
// prefix, the limit, and each pair's value.
func (c *churner) scan() {
	binary.BigEndian.PutUint16(c.prefix[:], uint16(c.rng.next()))
	c.rows, c.rowsOK = 0, true
	begin := now()
	c.w.st.Scan(c.prefix[:], scanLimit, c.visit)
	if c.scanLat != nil {
		end := now()
		c.scanLat.add(end-begin, end)
	}
	c.scans++
	if !c.rowsOK || c.rows > scanLimit {
		c.scanFailed++
	}
}

// visitRow checks one pair of the scan in progress.
func (c *churner) visitRow(k []byte, v uint64) bool {
	if len(k) != 8 || !bytes.HasPrefix(k, c.prefix[:]) ||
		(c.rows > 0 && bytes.Compare(c.prev[:], k) >= 0) ||
		v != churnValue(binary.BigEndian.Uint64(k)) {
		c.rowsOK = false
		return false
	}
	copy(c.prev[:], k)
	c.rows++
	return true
}

// preload inserts n keys.
func (c *churner) preload(n int) {
	for i := 0; i < n; i++ {
		c.put()
	}
	c.w.drain()
}

// step runs one operation of the stream.
func (c *churner) step() {
	switch r := c.rng.next() % 100; {
	case r < churnScanShare:
		c.scan()
		if c.w.tl != nil {
			c.w.tl.done(1)
		}
	case r < churnScanShare+churnPutShare || len(c.live) == 0:
		c.put()
	default:
		c.delete()
	}
}

// warm runs n operations untimed.
func (c *churner) warm(n int64) {
	for i := int64(0); i < n; i++ {
		c.step()
	}
	c.w.drain()
}

// timed runs until tl expires, drains the window and returns the
// operations run, scans included.
func (c *churner) timed(tl *timeline) int64 {
	before := c.w.submitted + c.scans
	c.w.tl = tl
	for !tl.expired() {
		c.step()
	}
	c.w.drain()
	c.w.tl = nil
	return c.w.submitted + c.scans - before
}

// ---- engine-churn-scan -------------------------------------------------

// churnSystem drives stream C into the store API: structural inserts and
// deletes over a working set far larger than the engine's caches, with
// ordered reads racing the writers.
type churnSystem struct {
	st       *store.Batched
	churners [producers]*churner
	probe    *layerProbe
}

func setupChurn(cfg config, tr *tracer) (system, error) {
	s := &churnSystem{st: openStore(tr != nil)}
	s.probe = newLayerProbe(s.st, tr)
	perProducer := cfg.sizes.cKeys / producers
	st := cfg.faulty(s.st)
	_ = both(func(p int) error {
		c := newChurner(p, cfg.seed, s.st, perProducer*2)
		c.preload(perProducer)
		c.w.st = s.probe.decorate(st, p, nil)
		c.warm(cfg.sizes.cWarmup)
		s.churners[p] = c
		return nil
	})
	return s, nil
}

func (s *churnSystem) run(seconds float64) (*section, error) {
	for _, c := range s.churners {
		c.w.lat, c.scanLat = closedLoopSamples(seconds), closedLoopSamples(seconds)
	}
	var ran [producers]int64
	s.probe.begin()
	sw := startTimed(seconds)
	_ = both(func(p int) error {
		ran[p] = s.churners[p].timed(sw.tls[p])
		return nil
	})
	var parts sampled
	for _, c := range s.churners {
		parts[latency] = append(parts[latency], c.w.lat)
		parts[scanTime] = append(parts[scanTime], c.scanLat)
	}
	sec := sw.stop(parts)
	sec.layers = s.probe.end(sec.use)

	// The model's final state: every live key of every producer.
	keys, sum := 0, uint64(0)
	var kb [8]byte
	for p, c := range s.churners {
		sec.ops += ran[p]
		sec.attempted += c.w.submitted + c.scans
		sec.failed += c.w.failed + c.scanFailed
		keys += len(c.live)
		for _, k := range c.live {
			binary.BigEndian.PutUint64(kb[:], k)
			sum += pairSum(kb[:], churnValue(k))
		}
	}
	a, f := checkFinal(s.st, keys, sum)
	sec.attempted, sec.failed = sec.attempted+a, sec.failed+f
	s.close()
	return sec, nil
}

func (s *churnSystem) keys() int { return s.st.Len() }

func (s *churnSystem) close() {
	if s.st == nil {
		return
	}
	s.st.Close()
	s.st, s.probe = nil, nil
	for _, c := range s.churners {
		c.w.st = nil
	}
}
