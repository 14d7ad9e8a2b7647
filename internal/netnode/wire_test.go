package netnode

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var updateWire = flag.Bool("update", false, "rewrite testdata/wire.golden from encoding/json")

// wireMessages and wireReplies cover every field of both schemas: every
// op, a batch carrying every record kind, trace context, negative and
// extreme integers, nil against empty lists, and strings that exercise
// every escaping rule of encoding/json (quotes, backslashes, the
// HTML-unsafe <>&, control bytes, invalid UTF-8, U+2028 and U+2029).
var wireMessages = []message{
	{},
	{Op: "read", Object: 0},
	{Op: "read", Object: 7, Trace: "t42", Span: "s43"},
	{Op: "update", Object: 3, From: 2},
	{Op: "update", Object: 3, From: 0, Trace: "t18446744073709551615", Span: "s18446744073709551615"},
	{Op: "sync", Object: 1, Version: 9},
	{Op: "reconcile", Object: 5},
	{Op: "place", Object: 2, Version: 1},
	{Op: "drop", Object: 4},
	{Op: "primary", Object: 6, Site: 3},
	{Op: "replicas", Object: 8, Sites: []int{0, 2, 5}},
	{Op: "replicas", Object: 8, Sites: []int{}},
	{Op: "replicas", Object: 8, Sites: nil},
	{Op: opBatch, Batch: []message{
		{Op: "place", Object: 1, Version: 3},
		{Op: "replicas", Object: 1, Sites: []int{1, 0}},
		{Op: "primary", Object: 1, Site: 1},
		{Op: "drop", Object: 2},
	}, Trace: "t1", Span: "s2"},
	{Op: opBatch, Batch: []message{}},
	{Op: opBatch, Batch: []message{{Op: opBatch, Batch: []message{{Op: "drop"}}}}},
	{Op: "read", Object: -1, From: -2, Site: -3, Version: -4, Sites: []int{-5}},
	{Op: "place", Object: math.MaxInt64, From: math.MinInt64, Site: math.MaxInt64, Version: math.MinInt64, Sites: []int{math.MinInt64, math.MaxInt64, 0}},
	{Op: "x\"y\\z</a>&b", Trace: "\x00\x01\b\f\n\r\t\x1f\x7f", Span: "\xff\xe2\x80 \u2028\u2029 é😀"},
}

var wireReplies = []reply{
	{},
	{OK: true},
	{OK: true, Holds: true, Version: 12},
	{OK: true, Cost: 340, Version: 2, Stale: []int{1, 4}},
	{OK: true, Stale: []int{}},
	{OK: true, Stale: nil},
	{OK: true, Applied: 4},
	{Code: codeNotPrimary, Err: "batch record 1 (drop object 0): cannot drop a primary copy", Applied: 1},
	{Code: codeBadJSON, Err: `malformed request: invalid character 'o' looking for beginning of object key string`},
	{Code: codeBadOp, Err: `unknown op "<script>&amp;"`},
	{Err: "a \"quoted\" back\\slash"},
	{Err: "ctl \x00\x01\b\f\n\r\t\x1f\x7f end"},
	{Err: "bad utf8 \xff\xfe, truncated \xe2\x80, overlong \xc0\xaf"},
	{Err: "separators \u2028 and \u2029, wide é ✓ 😀"},
	{OK: true, Cost: math.MaxInt64, Version: math.MinInt64, Applied: math.MinInt64, Stale: []int{math.MaxInt64, -1}},
	{Cost: -1, Holds: true, Applied: -7},
}

// TestWireBytesPinned pins the exact lines encoding/json gives for the
// table in testdata/wire.golden, messages first, then replies, one line
// each, and holds the hand codec to them: appendMessage and appendReply
// write those bytes, and decoding each line gives what json.Unmarshal
// gives. Run with -update to rewrite the file from encoding/json.
func TestWireBytesPinned(t *testing.T) {
	var want, hand []byte
	for i := range wireMessages {
		want = appendJSON(t, want, &wireMessages[i])
		hand = append(appendMessage(hand, &wireMessages[i]), '\n')
	}
	for i := range wireReplies {
		want = appendJSON(t, want, &wireReplies[i])
		hand = append(appendReply(hand, &wireReplies[i]), '\n')
	}
	golden := filepath.Join("testdata", "wire.golden")
	if *updateWire {
		if err := os.WriteFile(golden, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pinned, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, pinned) {
		t.Errorf("encoding/json's lines moved off %s:\ngot\n%s\nwant\n%s", golden, want, pinned)
	}
	if !bytes.Equal(hand, pinned) {
		t.Errorf("the hand encoder's lines differ from %s:\ngot\n%s\nwant\n%s", golden, hand, pinned)
	}
	// Every line decodes, and decoding into a used value leaves nothing
	// of it behind.
	lines := bytes.SplitAfter(pinned, []byte("\n"))
	for i, line := range lines[:len(wireMessages)] {
		if !checkDecode(t, decodeMessage, line, &wireMessages[(i+1)%len(wireMessages)]) {
			t.Errorf("decodeMessage refuses %q", line)
		}
	}
	for i, line := range lines[len(wireMessages) : len(lines)-1] {
		if !checkDecode(t, decodeReply, line, &wireReplies[(i+1)%len(wireReplies)]) {
			t.Errorf("decodeReply refuses %q", line)
		}
	}
}

// FuzzWireCodec holds the hand codec to encoding/json in both directions.
// Value to bytes: a message and a reply built from the inputs encode to
// json.Marshal's bytes, and decode to what json.Unmarshal makes of them.
// Bytes to value: whenever decodeMessage or decodeReply accepts line,
// json.Unmarshal accepts it too and gives the same value, even when the
// decoder's target held an earlier value.
//
// It kills these mutants: an encoder that writes "from" when it is 0,
// one that skips the HTML escaping of <, > and &, one that writes
// "applied":0, and a decoder that keeps the Sites of the line before.
func FuzzWireCodec(f *testing.F) {
	p := gen(f, 4, 6, 0.3, 0.5, 1)
	for _, tc := range codecCases(p.Primary(0), (p.Primary(0)+1)%p.Sites()) {
		if len(tc.payload) < 1<<10 {
			f.Add([]byte(tc.payload), "read", "t1", int64(0), int64(3), uint8(0))
		}
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "wire.golden"))
	if err != nil {
		f.Fatal(err)
	}
	for i, line := range bytes.SplitAfter(golden, []byte("\n")) {
		f.Add(line, "replicas", "a<b>&c\u2028", int64(i), int64(-i), uint8(i))
	}
	f.Add([]byte(`{"op":"read","obj":0}`), "update", "\xff\x00\"\\", int64(math.MinInt64), int64(0), uint8(255))

	f.Fuzz(func(t *testing.T, line []byte, op, text string, a, b int64, bits uint8) {
		var sites []int
		if bits&1 != 0 {
			sites = []int{int(a), int(b), int(a ^ b)}[:bits>>1&3]
		}
		m := message{Op: op, Object: int(a), From: int(b), Site: int(a >> 7), Sites: sites, Version: b >> 3, Trace: text}
		if bits&2 != 0 {
			m.Batch = []message{{Op: text, Object: int(b), Sites: sites}, {}}
			m.Span = op + text
		}
		r := reply{OK: bits&4 != 0, Err: text, Code: op, Cost: a, Holds: bits&8 != 0, Version: b, Stale: sites, Applied: int(a >> 5)}
		if bits&16 != 0 {
			r.Err, r.Code = "", ""
		}

		mj, hand := appendJSON(t, nil, &m), append(appendMessage(nil, &m), '\n')
		if !bytes.Equal(hand, mj) {
			t.Fatalf("appendMessage(%+v) = %s, json.Marshal gives %s", m, hand, mj)
		}
		if !checkDecode(t, decodeMessage, hand, &message{Sites: []int{9}}) {
			t.Fatalf("decodeMessage refuses %s", hand)
		}
		rj, hand := appendJSON(t, nil, &r), append(appendReply(nil, &r), '\n')
		if !bytes.Equal(hand, rj) {
			t.Fatalf("appendReply(%+v) = %s, json.Marshal gives %s", r, hand, rj)
		}
		if !checkDecode(t, decodeReply, hand, &reply{Stale: []int{9}}) {
			t.Fatalf("decodeReply refuses %s", hand)
		}

		checkDecode(t, decodeMessage, line, &m)
		checkDecode(t, decodeReply, line, &r)
	})
}

// appendJSON appends v's json.Marshal encoding and a newline to dst.
func appendJSON(t testing.TB, dst []byte, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(append(dst, data...), '\n')
}

// checkDecode fails unless decode, into a value that holds *prev,
// refuses line or decodes what json.Unmarshal decodes into a zero value.
// It reports whether decode accepted the line.
func checkDecode[T any](t *testing.T, decode func([]byte, *T) error, line []byte, prev *T) bool {
	t.Helper()
	var want T
	got := *prev
	if err := decode(line, &got); err != nil {
		return false
	}
	if err := json.Unmarshal(line, &want); err != nil {
		t.Fatalf("the hand decoder accepts %q, json.Unmarshal refuses it: %v", line, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the hand decoder makes %+v of %q, json.Unmarshal %+v", got, line, want)
	}
	return true
}
