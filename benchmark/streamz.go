package main

import (
	"encoding/hex"
	"strconv"

	"repro/internal/workload"
)

// cores is the processor budget: GOMAXPROCS for the product and the load
// generator together, and the engine's worker count.
const cores = 2

// producers is the fixed number of load-generating goroutines (engine
// workloads) or client connections (wire workloads).
const producers = 2

// windowDepth is how many operations each producer keeps in flight.
const windowDepth = 64

// Operation kinds of the benchmark's own streams.
const (
	opGet uint8 = iota
	opPut
	opDelete
)

// reply is the outcome of a point operation in the store contract's
// terms: (value, present) for a get, (_, replaced) for a put, (_, present)
// for a delete.
type reply struct {
	val   uint64
	found bool
}

// expect holds the expected reply of every operation of a script.
type expect struct {
	val   []uint64
	found []bool
}

func (e *expect) at(i int) reply { return reply{e.val[i], e.found[i]} }

// script is one producer's share of stream Z, as parallel pointer-free
// arrays (the harness shares a heap with the system under test, so what it
// retains is kept small and out of the garbage collector's way).
//
// Every key belongs to exactly one producer, and the store applies one
// producer's operations on one key in submission order, so every reply is
// known when the script is made. The store is preloaded with the state a
// whole pass leaves behind, so every pass starts from the same state and
// steady holds the replies of any pass.
type script struct {
	key    []uint32 // index into streamZ.keys
	kind   []uint8
	val    []uint64 // value a put stores
	steady expect
	// The wire rendering ("GET <hex>\n", "PUT <hex> <v>\n") of operation i
	// is lineBuf[lineEnd[i-1]:lineEnd[i]]; empty on the engine workloads.
	lineBuf []byte
	lineEnd []uint32
}

func (s *script) len() int { return len(s.key) }

func (s *script) line(i int) []byte {
	start := uint32(0)
	if i > 0 {
		start = s.lineEnd[i-1]
	}
	return s.lineBuf[start:s.lineEnd[i]]
}

// streamZ is the Zipf point-operation stream: IPGEO keys, half reads, 5% of
// the writes inserting unseen keys, split over the producers by key owner.
type streamZ struct {
	// keys are the distinct keys as the store sees them: the raw IPGEO
	// bytes on the engine workloads, the hex token plus the server's 0x00
	// terminator on the wire workloads.
	keys  [][]byte
	owner []uint8 // producer of keys[i]
	// final[i] is the value of keys[i] after any whole number of passes:
	// the state the store is preloaded with. (The generator's own key set
	// starts at value i; the keys its writes insert are simply part of the
	// preloaded state here, so the timed passes update in place and leave
	// structural changes to stream C.)
	final   []uint64
	scripts [producers]script
}

// ownerOf routes a raw key to its producer (FNV-1a over the key).
func ownerOf(raw []byte) uint8 {
	h := uint32(2166136261)
	for _, b := range raw {
		h = (h ^ uint32(b)) * 16777619
	}
	return uint8(h % producers)
}

// storedKey is the key as the store holds it: the raw bytes, or on the
// wire the hex token followed by the server's terminator.
func storedKey(raw []byte, wire bool) []byte {
	if !wire {
		return raw
	}
	k := make([]byte, hex.EncodedLen(len(raw))+1)
	hex.Encode(k, raw)
	return k
}

// generateZ builds stream Z from the seed. The same arguments always give
// the same stream.
func generateZ(keys, ops int, seed int64, wire bool) (*streamZ, error) {
	w, err := workload.Generate(workload.Spec{
		Name: workload.IPGEO, NumKeys: keys, NumOps: ops,
		ReadRatio: 0.5, InsertFraction: 0.05, ZipfS: 1.1, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	z := &streamZ{}
	index := make(map[string]uint32, len(w.Keys)+ops/32)
	intern := func(raw []byte) uint32 {
		if i, ok := index[string(raw)]; ok {
			return i
		}
		i := uint32(len(z.keys))
		index[string(raw)] = i
		z.keys = append(z.keys, storedKey(raw, wire))
		z.owner = append(z.owner, ownerOf(raw))
		return i
	}
	for _, raw := range w.Keys {
		intern(raw)
	}
	for _, o := range w.Ops {
		k := intern(o.Key)
		sc := &z.scripts[z.owner[k]]
		sc.key = append(sc.key, k)
		if o.Kind == workload.Write {
			sc.kind = append(sc.kind, opPut)
			sc.val = append(sc.val, o.Value)
		} else {
			sc.kind = append(sc.kind, opGet)
			sc.val = append(sc.val, 0)
		}
	}

	// Two passes of the model over each script: the first finds the state
	// a whole pass leaves behind, the second the replies from that state.
	z.final = make([]uint64, len(z.keys))
	for i := range z.final {
		z.final[i] = uint64(i)
	}
	for p := range z.scripts {
		sc := &z.scripts[p]
		sc.replay(z.final)
		sc.steady = sc.replay(z.final)
		if wire {
			sc.render(z.keys)
		}
	}
	return z, nil
}

// replay applies the script in order to a model in which every key is
// present, and returns the reply the store must give to each operation.
func (s *script) replay(val []uint64) expect {
	e := expect{make([]uint64, s.len()), make([]bool, s.len())}
	for i, k := range s.key {
		e.found[i] = true
		if s.kind[i] == opPut {
			val[k] = s.val[i]
		} else {
			e.val[i] = val[k]
		}
	}
	return e
}

// render fills in the script's wire commands.
func (s *script) render(keys [][]byte) {
	s.lineBuf = make([]byte, 0, s.len()*24)
	s.lineEnd = make([]uint32, s.len())
	for i, k := range s.key {
		tok := keys[k][:len(keys[k])-1] // without the terminator
		if s.kind[i] == opPut {
			s.lineBuf = append(s.lineBuf, "PUT "...)
			s.lineBuf = append(s.lineBuf, tok...)
			s.lineBuf = append(s.lineBuf, ' ')
			s.lineBuf = strconv.AppendUint(s.lineBuf, s.val[i], 10)
		} else {
			s.lineBuf = append(s.lineBuf, "GET "...)
			s.lineBuf = append(s.lineBuf, tok...)
		}
		s.lineBuf = append(s.lineBuf, '\n')
		s.lineEnd[i] = uint32(len(s.lineBuf))
	}
}

// appendReply renders the line the server must answer an operation with,
// given the expected outcome; the wire clients byte-compare against it.
func appendReply(b []byte, kind uint8, want reply) []byte {
	switch {
	case kind == opGet && want.found:
		b = append(b, "VALUE "...)
		b = strconv.AppendUint(b, want.val, 10)
	case kind == opPut && want.found:
		b = append(b, "OK replaced"...)
	case kind == opPut, kind == opDelete && want.found:
		b = append(b, "OK"...)
	default: // absent key read or deleted
		b = append(b, "NOT_FOUND"...)
	}
	return append(b, '\n')
}

// finalState returns the key count and content checksum the store must
// hold once producer p has run done[p] operations from the preloaded
// state: whole passes leave final unchanged, a partial pass overlays its
// puts.
func (z *streamZ) finalState(done [producers]int64) (keys int, sum uint64) {
	val := append([]uint64(nil), z.final...)
	for p := range z.scripts {
		sc := &z.scripts[p]
		if sc.len() == 0 {
			continue
		}
		for i := 0; i < int(done[p]%int64(sc.len())); i++ {
			if sc.kind[i] == opPut {
				val[sc.key[i]] = sc.val[i]
			}
		}
	}
	for i, k := range z.keys {
		sum += pairSum(k, val[i])
	}
	return len(z.keys), sum
}

// pairSum hashes one key/value pair; summed over a store's pairs it gives
// a checksum that does not depend on the order they are visited in.
func pairSum(key []byte, val uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return mix64(h + val*0x9e3779b97f4a7c15)
}

// mix64 is the splitmix64 finalizer: a bijection on 64-bit values.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
