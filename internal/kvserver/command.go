package kvserver

import (
	"strconv"
	"strings"
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
func parseCommand(line []byte) (cmd command, errResponse []byte) {
	fields := strings.Fields(string(line))
	if len(fields) == 0 {
		return command{}, nil
	}
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
		return command{kind: cmdPut, key: storedKey(args[0]), value: v}, nil
	case "GET":
		if len(args) != 1 {
			return command{}, respLine("ERR usage: GET <key>")
		}
		return command{kind: cmdGet, key: storedKey(args[0])}, nil
	case "DEL":
		if len(args) != 1 {
			return command{}, respLine("ERR usage: DEL <key>")
		}
		return command{kind: cmdDelete, key: storedKey(args[0])}, nil
	case "SCAN":
		if len(args) != 2 {
			return command{}, respLine("ERR usage: SCAN <prefix> <limit>")
		}
		limit, err := strconv.Atoi(args[1])
		if err != nil || limit < 1 {
			return command{}, respLine("ERR bad limit")
		}
		// The stored prefix has no terminator: scan the raw bytes.
		return command{kind: cmdScan, key: []byte(args[0]), limit: limit}, nil
	case "RANGE":
		if len(args) != 3 {
			return command{}, respLine("ERR usage: RANGE <lo> <hi> <limit>")
		}
		limit, err := strconv.Atoi(args[2])
		if err != nil || limit < 1 {
			return command{}, respLine("ERR bad limit")
		}
		return command{kind: cmdRange, key: storedKey(args[0]), hi: storedKey(args[1]), limit: limit}, nil
	case "LEN": // these three ignore any arguments
		return command{kind: cmdLen}, nil
	case "STATS":
		return command{kind: cmdStats}, nil
	case "QUIT":
		return command{kind: cmdQuit}, nil
	}
	return command{}, respLine("ERR unknown command", name)
}
