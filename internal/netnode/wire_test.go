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

var updateWire = flag.Bool("update", false, "rewrite testdata/wire.golden from the hand encoder")

// wireMessages and wireReplies cover every field of both schemas: every
// op, a batch carrying every record kind, trace context, negative and
// extreme integers, nil against empty lists, and strings that exercise
// every escaping rule (quotes, backslashes, control bytes, invalid
// UTF-8) and the bytes written as they are (<>&, DEL, U+2028, U+2029).
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

// TestWireBytesPinned pins the hand encoder's lines for the table in
// testdata/wire.golden, messages first, then replies, one line each. Each
// line is accepted, decodes to what json.Unmarshal makes of it, encodes
// back to itself, and json.Unmarshal reads it back to the value the table
// holds. Run with -update to rewrite the file from the encoder.
func TestWireBytesPinned(t *testing.T) {
	var hand []byte
	for i := range wireMessages {
		hand = checkEncode(t, appendMessage, decodeMessage, hand, &wireMessages[i], &wireMessages[(i+1)%len(wireMessages)])
	}
	for i := range wireReplies {
		hand = checkEncode(t, appendReply, decodeReply, hand, &wireReplies[i], &wireReplies[(i+1)%len(wireReplies)])
	}
	golden := filepath.Join("testdata", "wire.golden")
	if *updateWire {
		if err := os.WriteFile(golden, hand, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pinned, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(hand, pinned) {
		t.Errorf("the hand encoder's lines moved off %s:\ngot\n%s\nwant\n%s", golden, hand, pinned)
	}
}

// FuzzWireCodec holds the codec to its one rule in both directions.
// Value to line: a message and a reply built from the inputs encode to a
// line that the decoder accepts, that encodes back to itself, and that
// both the decoder and json.Unmarshal read back to what json.Unmarshal
// makes of json.Marshal's encoding of the value. Line to value: whenever
// decodeMessage or decodeReply accepts line, json.Unmarshal accepts it
// too and gives the same value, even when the decoder's target held an
// earlier value, and encoding that value gives line back.
//
// It kills these mutants: an encoder that writes "from" when it is 0,
// one that writes < as \u003c, one that writes "applied":0, a decoder
// that keeps the Sites of the line before, one that accepts whitespace,
// one that accepts a zero omitempty field and one that accepts -0.
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
		checkEncode(t, appendMessage, decodeMessage, nil, &m, &message{Sites: []int{9}})
		checkEncode(t, appendReply, decodeReply, nil, &r, &reply{Stale: []int{9}})

		checkDecode(t, appendMessage, decodeMessage, line, &m)
		checkDecode(t, appendReply, decodeReply, line, &r)
	})
}

// checkEncode appends v's line to dst and fails unless the decoder, into
// a value that holds *prev, accepts it (checkDecode), and json.Unmarshal
// reads it back to what it makes of json.Marshal's encoding of v.
func checkEncode[T any](t *testing.T, encode func([]byte, *T) []byte, decode func([]byte, *T) error, dst []byte, v, prev *T) []byte {
	t.Helper()
	start := len(dst)
	dst = append(encode(dst, v), '\n')
	line := dst[start:]
	if !checkDecode(t, encode, decode, line, prev) {
		t.Fatalf("the decoder refuses %q, the encoding of %+v", line, *v)
	}
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := unmarshal[T](t, line), unmarshal[T](t, data); !reflect.DeepEqual(got, want) {
		t.Fatalf("json.Unmarshal makes %+v of %q, and %+v of json.Marshal's %s", got, line, want, data)
	}
	return dst
}

// checkDecode fails unless decode, into a value that holds *prev,
// refuses line, or decodes what json.Unmarshal decodes into a zero value
// and that value encodes back to line. It reports whether decode
// accepted the line.
func checkDecode[T any](t *testing.T, encode func([]byte, *T) []byte, decode func([]byte, *T) error, line []byte, prev *T) bool {
	t.Helper()
	got := *prev
	if err := decode(line, &got); err != nil {
		return false
	}
	if want := unmarshal[T](t, line); !reflect.DeepEqual(got, want) {
		t.Fatalf("the hand decoder makes %+v of %q, json.Unmarshal %+v", got, line, want)
	}
	if again := encode(nil, &got); !bytes.Equal(again, bytes.TrimSuffix(line, []byte("\n"))) {
		t.Fatalf("the hand decoder accepts %q, and its value encodes to %q", line, again)
	}
	return true
}

// unmarshal returns what json.Unmarshal makes of data, which must be JSON.
func unmarshal[T any](t *testing.T, data []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("json.Unmarshal refuses %q: %v", data, err)
	}
	return v
}
