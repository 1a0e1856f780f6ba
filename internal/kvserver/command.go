package kvserver

import (
	"bytes"
	"math"
	"strconv"
)

// cmdKind is a parsed protocol command. The zero value is a blank line:
// nothing to do, nothing to answer.
type cmdKind uint8

const (
	cmdBlank cmdKind = iota
	cmdGet
	cmdPut
	cmdDelete
	cmdScan
	cmdRange
	cmdLen
	cmdStats
	cmdQuit
)

var cmdNames = [...]string{"", "get", "put", "delete", "scan", "range", "len", "stats", "quit"}

// String names the command as wire spans do.
func (k cmdKind) String() string { return cmdNames[k] }

// point reports whether the command is a point operation: one key, one
// store token, one response line.
func (k cmdKind) point() bool { return k == cmdGet || k == cmdPut || k == cmdDelete }

// command is one well-formed protocol command, validated and with its keys
// in stored form.
type command struct {
	kind  cmdKind
	key   []byte // GET/PUT/DEL: stored key; SCAN: raw prefix; RANGE: stored lower bound
	hi    []byte // RANGE: stored upper bound
	value uint64 // PUT
	limit int    // SCAN/RANGE: client limit, at least 1
}

// parseCommand is the protocol grammar, in one place: it turns one line
// (without its terminator) into a well-formed command, or into the one
// "ERR ..." response line a malformed line is answered with. It touches no
// server state, so both connection loops — and the fuzzer — share it.
//
// It works on the line's bytes, which alias the connection's read buffer,
// and copies out only what outlives them: a well-formed GET, PUT or DEL
// costs exactly one allocation, its stored key. Fields are separated by
// ASCII whitespace only; every other byte — NBSP, NEL and the other Unicode
// spaces included — is a key byte. Verbs match ASCII case-insensitively.
func parseCommand(line []byte) (cmd command, errResponse []byte) {
	var f [4][]byte // verb + at most three arguments (RANGE)
	n := splitFields(line, &f)
	if n == 0 {
		return command{}, nil
	}
	verb, nargs := f[0], n-1
	switch {
	case isVerb(verb, "PUT"):
		if nargs != 2 {
			return command{}, respLine("ERR usage: PUT <key> <uint64>")
		}
		v, ok := parseDecimal(f[2])
		if !ok {
			// Not plain digits that fit: strconv decides, and words the error.
			var err error
			if v, err = strconv.ParseUint(string(f[2]), 10, 64); err != nil {
				return command{}, respLine("ERR bad value:", err.Error())
			}
		}
		return command{kind: cmdPut, key: storedKey(f[1]), value: v}, nil
	case isVerb(verb, "GET"):
		if nargs != 1 {
			return command{}, respLine("ERR usage: GET <key>")
		}
		return command{kind: cmdGet, key: storedKey(f[1])}, nil
	case isVerb(verb, "DEL"):
		if nargs != 1 {
			return command{}, respLine("ERR usage: DEL <key>")
		}
		return command{kind: cmdDelete, key: storedKey(f[1])}, nil
	case isVerb(verb, "SCAN"):
		if nargs != 2 {
			return command{}, respLine("ERR usage: SCAN <prefix> <limit>")
		}
		limit, ok := parseLimit(f[2])
		if !ok {
			return command{}, respLine("ERR bad limit")
		}
		// The stored prefix has no terminator: scan the raw bytes.
		return command{kind: cmdScan, key: bytes.Clone(f[1]), limit: limit}, nil
	case isVerb(verb, "RANGE"):
		if nargs != 3 {
			return command{}, respLine("ERR usage: RANGE <lo> <hi> <limit>")
		}
		limit, ok := parseLimit(f[3])
		if !ok {
			return command{}, respLine("ERR bad limit")
		}
		return command{kind: cmdRange, key: storedKey(f[1]), hi: storedKey(f[2]), limit: limit}, nil
	case isVerb(verb, "LEN"): // these three ignore any arguments
		return command{kind: cmdLen}, nil
	case isVerb(verb, "STATS"):
		return command{kind: cmdStats}, nil
	case isVerb(verb, "QUIT"):
		return command{kind: cmdQuit}, nil
	}
	name := make([]byte, len(verb))
	for i, c := range verb {
		name[i] = upperASCII(c)
	}
	return command{}, respLine("ERR unknown command", string(name))
}

// splitFields stores the line's first len(f) whitespace-separated fields in
// f and returns how many fields the line has in all.
func splitFields(line []byte, f *[4][]byte) int {
	n := 0
	for i := 0; i < len(line); {
		if isSpaceASCII(line[i]) {
			i++
			continue
		}
		j := i + 1
		for j < len(line) && !isSpaceASCII(line[j]) {
			j++
		}
		if n < len(f) {
			f[n] = line[i:j]
		}
		n++
		i = j
	}
	return n
}

// isSpaceASCII reports whether c separates fields: the six ASCII white
// space bytes and no other.
func isSpaceASCII(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' || c == '\f'
}

func upperASCII(c byte) byte {
	if 'a' <= c && c <= 'z' {
		c -= 'a' - 'A'
	}
	return c
}

// isVerb reports whether tok is the upper-case verb in any ASCII casing.
func isVerb(tok []byte, verb string) bool {
	if len(tok) != len(verb) {
		return false
	}
	for i := range tok {
		if upperASCII(tok[i]) != verb[i] {
			return false
		}
	}
	return true
}

// parseDecimal parses 1 to 19 plain decimal digits, which always fit a
// uint64. Everything else strconv accepts or rejects (a 20-digit value, a
// sign, an empty token) is the caller's fallback to strconv itself.
func parseDecimal(tok []byte) (uint64, bool) {
	if len(tok) == 0 || len(tok) > 19 {
		return 0, false
	}
	var v uint64
	for _, c := range tok {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	return v, true
}

// parseLimit parses a SCAN/RANGE limit: an int of at least 1.
func parseLimit(tok []byte) (int, bool) {
	if v, ok := parseDecimal(tok); ok {
		return int(v), 1 <= v && v <= math.MaxInt
	}
	n, err := strconv.Atoi(string(tok))
	return n, err == nil && n >= 1
}
