package main

import (
	"repro/internal/store"
)

// latEvery is the stride at which closed-loop producers time a point
// operation: two clock reads per operation would be a quarter of an
// engine operation's cost, one in eight is noise.
const latEvery = 8

// window is one producer's bounded set of in-flight store operations:
// submit blocks on the oldest token when windowDepth are outstanding, and
// every completion is checked against the reply the model expects.
type window struct {
	st   store.Store
	tok  [windowDepth]store.Pending
	kind [windowDepth]uint8
	want [windowDepth]reply
	sent [windowDepth]int64 // submit time of a timed operation, else 0
	head int                // slot of the oldest outstanding operation
	n    int                // outstanding operations

	submitted int64
	completed int64
	failed    int64
	lat       *samples  // submit-to-completion times, every latEvery-th op
	tl        *timeline // nil outside a timed section
	tr        *tracer   // nil when not tracing
	producer  int
}

func (w *window) submit(kind uint8, key []byte, val uint64, want reply) {
	if w.n == windowDepth {
		w.complete()
	}
	slot := (w.head + w.n) % windowDepth
	w.sent[slot] = 0
	if w.lat != nil && w.submitted%latEvery == 0 {
		w.sent[slot] = now()
	}
	switch kind {
	case opGet:
		w.tok[slot] = w.st.GetAsync(key)
	case opPut:
		w.tok[slot] = w.st.PutAsync(key, val)
	default:
		w.tok[slot] = w.st.DeleteAsync(key)
	}
	w.kind[slot], w.want[slot] = kind, want
	w.n++
	w.submitted++
}

// complete waits for the oldest outstanding operation and checks it.
func (w *window) complete() {
	slot := w.head
	val, found := w.tok[slot].Wait()
	w.tok[slot] = nil
	if t0 := w.sent[slot]; t0 != 0 {
		at := now()
		w.lat.add(at-t0, at)
		if w.tr != nil && w.completed%spanEvery == 0 {
			w.tr.record(spanRequest, w.producer, w.completed, t0, at, "")
		}
	}
	want := w.want[slot]
	if found != want.found || (w.kind[slot] == opGet && val != want.val) {
		w.failed++
	}
	w.head = (w.head + 1) % windowDepth
	w.n--
	w.completed++
	if w.tl != nil {
		w.tl.done(1)
	}
}

func (w *window) drain() {
	for w.n > 0 {
		w.complete()
	}
}

// preloadZ stores stream Z's initial state, each producer its own keys
// through a window, checking that none was already there. It returns the
// operations made and failed.
func preloadZ(st store.Store, z *streamZ) (attempted, failed int64) {
	var wins [producers]window
	_ = both(func(p int) error {
		w := &wins[p]
		w.st = st
		for i, k := range z.keys {
			if int(z.owner[i]) == p {
				w.submit(opPut, k, z.final[i], reply{})
			}
		}
		w.drain()
		return nil
	})
	for p := range wins {
		attempted, failed = attempted+wins[p].submitted, failed+wins[p].failed
	}
	return attempted, failed
}

// run carries on cycling through the script where the window left off,
// for n operations when tl is nil and until tl expires otherwise, checking
// against exp, and drains the window. It returns the operations it ran.
func (w *window) run(z *streamZ, sc *script, exp *expect, n int64, tl *timeline) int64 {
	before := w.submitted
	w.tl = tl
	size := int64(sc.len())
	for size > 0 {
		if tl == nil && w.submitted-before >= n || tl != nil && tl.expired() {
			break
		}
		at := int(w.submitted % size)
		w.submit(sc.kind[at], z.keys[sc.key[at]], sc.val[at], exp.at(at))
	}
	w.drain()
	w.tl = nil
	return w.submitted - before
}
