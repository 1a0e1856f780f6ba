package kvserver

import (
	"bufio"
	"bytes"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/race"
)

// TestParseFieldSeparators pins what separates fields — ASCII whitespace and
// nothing else, so the Unicode spaces strings.Fields would have split on are
// key bytes — and that verbs match in any ASCII casing.
func TestParseFieldSeparators(t *testing.T) {
	get := func(key string) command { return command{kind: cmdGet, key: storedKey([]byte(key))} }
	for _, tc := range []struct {
		line string
		want command
	}{
		{"GET a\u00a0b", get("a\u00a0b")}, // NBSP
		{"GET a\u0085b", get("a\u0085b")}, // NEL
		{"GET a\u2003b", get("a\u2003b")}, // EM SPACE
		{"GET \u3000", get("\u3000")},     // a key of one ideographic space
		{"GET a\x85\xa0b", get("a\x85\xa0b")},
		{"get k", get("k")},
		{"Get k", get("k")},
		{"GET k", get("k")},
		{"gEt k\r", get("k")}, // the \r of a \r\n line end
		{" \t\v\fGET\t \fk\v\r", get("k")},
		{"put k 7\r", command{kind: cmdPut, key: storedKey([]byte("k")), value: 7}},
		{"Del k", command{kind: cmdDelete, key: storedKey([]byte("k"))}},
		{"scan p\u00a0 3", command{kind: cmdScan, key: []byte("p\u00a0"), limit: 3}},
		{"quit\r", command{kind: cmdQuit}},
	} {
		cmd, resp := parseCommand([]byte(tc.line))
		if resp != nil || !reflect.DeepEqual(cmd, tc.want) {
			t.Errorf("%q: got %+v / %q, want %+v", tc.line, cmd, resp, tc.want)
		}
	}
	// A non-ASCII letter that Unicode upper-cases to an ASCII one is not a
	// verb byte.
	if _, resp := parseCommand([]byte("\u017fcan p 1")); !bytes.HasPrefix(resp, []byte("ERR unknown command")) {
		t.Errorf("long-s verb answered %q", resp)
	}
}

// TestAllocBudgetParse: a well-formed point command allocates its stored
// key and nothing else.
func TestAllocBudgetParse(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	for _, line := range []string{
		"GET 6b65792d31323334",
		"PUT 6b65792d31323334 1234567",
		"DEL 6b65792d31323334\r",
	} {
		in := []byte(line)
		if n := testing.AllocsPerRun(200, func() {
			if cmd, resp := parseCommand(in); resp != nil || !cmd.kind.point() {
				t.Fatalf("%q did not parse", line)
			}
		}); n != 1 {
			t.Errorf("%q: %v allocs/op, want 1 (the stored key)", line, n)
		}
	}
}

// TestAllocBudgetReply: formatting a point response allocates nothing.
func TestAllocBudgetReply(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	c := &connState{s: New(), w: bufio.NewWriter(io.Discard), scratch: make([]byte, 0, 64)}
	if n := testing.AllocsPerRun(200, func() {
		c.reply(cmdGet, 1234567, true)
		c.reply(cmdPut, 0, true)
		c.reply(cmdDelete, 0, false)
	}); n != 0 {
		t.Errorf("reply: %v allocs/op, want 0", n)
	}
	var out bytes.Buffer
	c.w.Reset(&out)
	c.reply(cmdGet, 1234567, true)
	c.w.Flush()
	if out.String() != "VALUE 1234567\n" {
		t.Errorf("reply wrote %q", out.String())
	}
}

// parseCommandFields is the parser this package had before parseCommand
// worked on bytes, kept as the oracle of the differential fuzz: on ASCII
// input the two must agree on every command and every error line. (On
// non-ASCII input they differ by design: see TestParseFieldSeparators.)
func parseCommandFields(line []byte) (cmd command, errResponse []byte) {
	fields := strings.Fields(string(line))
	if len(fields) == 0 {
		return command{}, nil
	}
	stored := func(s string) []byte { return storedKey([]byte(s)) }
	name, args := strings.ToUpper(fields[0]), fields[1:]
	switch name {
	case "PUT":
		if len(args) != 2 {
			return command{}, respLine("ERR usage: PUT <key> <uint64>")
		}
		v, err := strconv.ParseUint(args[1], 10, 64)
		if err != nil {
			return command{}, respLine("ERR bad value:", err.Error())
		}
		return command{kind: cmdPut, key: stored(args[0]), value: v}, nil
	case "GET":
		if len(args) != 1 {
			return command{}, respLine("ERR usage: GET <key>")
		}
		return command{kind: cmdGet, key: stored(args[0])}, nil
	case "DEL":
		if len(args) != 1 {
			return command{}, respLine("ERR usage: DEL <key>")
		}
		return command{kind: cmdDelete, key: stored(args[0])}, nil
	case "SCAN":
		if len(args) != 2 {
			return command{}, respLine("ERR usage: SCAN <prefix> <limit>")
		}
		limit, err := strconv.Atoi(args[1])
		if err != nil || limit < 1 {
			return command{}, respLine("ERR bad limit")
		}
		return command{kind: cmdScan, key: []byte(args[0]), limit: limit}, nil
	case "RANGE":
		if len(args) != 3 {
			return command{}, respLine("ERR usage: RANGE <lo> <hi> <limit>")
		}
		limit, err := strconv.Atoi(args[2])
		if err != nil || limit < 1 {
			return command{}, respLine("ERR bad limit")
		}
		return command{kind: cmdRange, key: stored(args[0]), hi: stored(args[1]), limit: limit}, nil
	case "LEN":
		return command{kind: cmdLen}, nil
	case "STATS":
		return command{kind: cmdStats}, nil
	case "QUIT":
		return command{kind: cmdQuit}, nil
	}
	return command{}, respLine("ERR unknown command", name)
}

// FuzzParseCommand holds the parser to its contract on arbitrary bytes:
// it never panics, and every line yields exactly one of a blank, a
// well-formed command, or a single "ERR ..." response line; on lines made of
// ASCII bytes it must also agree with parseCommandFields. The seeds are
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
		"PUT k 9999999999999999999", "PUT k 00000000000000000000001", "PUT k +1", "PUT k 1_0",
		"SCAN p 9223372036854775807", "SCAN p 9223372036854775808", "SCAN p 007", "RANGE a b -0",
		"GET a\nb", "stats\x1f", "GET a\u00a0b",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		cmd, resp := parseCommand(line)
		if bytes.IndexFunc(line, func(r rune) bool { return r >= 0x80 }) < 0 {
			want, wantResp := parseCommandFields(line)
			if !reflect.DeepEqual(cmd, want) || !bytes.Equal(resp, wantResp) {
				t.Fatalf("%q: got %+v / %q, the strings.Fields parser %+v / %q", line, cmd, resp, want, wantResp)
			}
		}
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
		if len(bytes.Trim(line, " \t\r\n\v\f")) != 0 {
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
