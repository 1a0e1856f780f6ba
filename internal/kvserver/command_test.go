package kvserver

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParseCommand holds the parser to its contract on arbitrary bytes:
// it never panics, and every line yields exactly one of a blank, a
// well-formed command, or a single "ERR ..." response line. The seeds are
// TestParserEdgeCases' table plus the shapes a socket can deliver: partial
// lines, over-long tokens, binary garbage, overflowing numbers.
func FuzzParseCommand(f *testing.F) {
	for _, seed := range []string{
		"PUT k 1 2", "PUT", "PUT k", "PUT k notanum", "GET", "GET   ", "DEL",
		"SCAN p", "SCAN p zero", "SCAN p 0", "RANGE a b", "FROB x",
		"put lower 5", "GET lower", "", "   ", "\r", "GET k\r",
		"PU", "PUT k 1", "DEL k", "SCAN p 10", "RANGE a b 3", "LEN", "STATS", "QUIT now",
		"PUT k 18446744073709551615", "PUT k 18446744073709551616", "PUT k -1",
		"SCAN p 99999999999999999999", "RANGE a b -5", "SCAN p +3",
		"GET " + strings.Repeat("k", 70<<10),
		"\x00\xff\xfe GET \x80", "GET \x00", "G\xc3\x89T k", "PUT\tk\v7",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		cmd, resp := parseCommand(line)
		if resp != nil {
			if cmd.kind != cmdBlank {
				t.Fatalf("%q: both a command (%v) and an error %q", line, cmd.kind, resp)
			}
			if !bytes.HasPrefix(resp, []byte("ERR ")) || bytes.Count(resp, []byte("\n")) != 1 ||
				resp[len(resp)-1] != '\n' {
				t.Fatalf("%q: error response %q is not one ERR line", line, resp)
			}
			return
		}
		checkWellFormed(t, line, cmd)
	})
}

// checkWellFormed asserts the invariants the connection loops rely on for
// each command kind.
func checkWellFormed(t *testing.T, line []byte, cmd command) {
	t.Helper()
	stored := func(k []byte) bool { return len(k) >= 2 && k[len(k)-1] == 0 }
	switch cmd.kind {
	case cmdBlank:
		if len(bytes.Fields(line)) != 0 {
			t.Fatalf("%q: a non-blank line parsed to nothing", line)
		}
	case cmdGet, cmdDelete, cmdPut:
		if !stored(cmd.key) || cmd.hi != nil || cmd.limit != 0 {
			t.Fatalf("%q: malformed point command %+v", line, cmd)
		}
		if cmd.kind != cmdPut && cmd.value != 0 {
			t.Fatalf("%q: %v carries a value", line, cmd.kind)
		}
	case cmdScan:
		if len(cmd.key) == 0 || cmd.limit < 1 || cmd.hi != nil {
			t.Fatalf("%q: malformed SCAN %+v", line, cmd)
		}
	case cmdRange:
		if !stored(cmd.key) || !stored(cmd.hi) || cmd.limit < 1 {
			t.Fatalf("%q: malformed RANGE %+v", line, cmd)
		}
	case cmdLen, cmdStats, cmdQuit:
		if cmd.key != nil || cmd.hi != nil || cmd.limit != 0 || cmd.value != 0 {
			t.Fatalf("%q: %v carries operands %+v", line, cmd.kind, cmd)
		}
	default:
		t.Fatalf("%q: unknown kind %d", line, cmd.kind)
	}
}
