package netnode

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The wire format is one JSON object per line each way: a message, then
// its reply. This file is the only code that writes or parses it, and
// the encoder alone defines it: a line is accepted if and only if the
// encoder writes it (with batches nested at most maxBatchDepth deep), and
// encoding what was decoded gives the same line back.
//
// The encoder writes the fields in declaration order, an omitempty field
// only when it is set, and no whitespace. In a string it escapes only the
// quote, the backslash (\" and \\) and control bytes (\u00XX, lower-case
// hex), writes each byte of invalid UTF-8 as U+FFFD and everything else
// as it is. Every line is JSON, and json.Unmarshal reads it back to the
// value. The decoder expects the same literals in the same order, so it
// refuses any other spelling: whitespace, another key order, a repeated
// or unknown key, another escape, a zero omitempty integer, an empty
// omitempty string or list, -0 or a leading zero.

// maxBatchDepth bounds how deep batches nest in one line. A site refuses
// any batch within a batch (serveBatch) with bad_op; the decoder reads a
// few levels so that refusal keeps its code, and bounds its recursion.
const maxBatchDepth = 4

// appendMessage appends m's encoding to dst.
func appendMessage(dst []byte, m *message) []byte {
	dst = appendString(dst, `{"op":`, m.Op)
	dst = appendInt(dst, `,"obj":`, int64(m.Object))
	if m.From != 0 {
		dst = appendInt(dst, `,"from":`, int64(m.From))
	}
	if m.Site != 0 {
		dst = appendInt(dst, `,"site":`, int64(m.Site))
	}
	if len(m.Sites) > 0 {
		dst = appendInts(dst, `,"sites":`, m.Sites)
	}
	if m.Version != 0 {
		dst = appendInt(dst, `,"version":`, m.Version)
	}
	if len(m.Batch) > 0 {
		dst = append(dst, `,"batch":`...)
		for i := range m.Batch {
			dst = append(dst, "[,"[min(i, 1)])
			dst = appendMessage(dst, &m.Batch[i])
		}
		dst = append(dst, ']')
	}
	if m.Trace != "" {
		dst = appendString(dst, `,"trace":`, m.Trace)
	}
	if m.Span != "" {
		dst = appendString(dst, `,"span":`, m.Span)
	}
	return append(dst, '}')
}

// appendReply appends r's encoding to dst.
func appendReply(dst []byte, r *reply) []byte {
	if r.OK {
		dst = append(dst, `{"ok":true`...)
	} else {
		dst = append(dst, `{"ok":false`...)
	}
	if r.Err != "" {
		dst = appendString(dst, `,"err":`, r.Err)
	}
	if r.Code != "" {
		dst = appendString(dst, `,"code":`, r.Code)
	}
	if r.Cost != 0 {
		dst = appendInt(dst, `,"cost":`, r.Cost)
	}
	if r.Holds {
		dst = append(dst, `,"holds":true`...)
	}
	if r.Version != 0 {
		dst = appendInt(dst, `,"version":`, r.Version)
	}
	if len(r.Stale) > 0 {
		dst = appendInts(dst, `,"stale":`, r.Stale)
	}
	if r.Applied != 0 {
		dst = appendInt(dst, `,"applied":`, int64(r.Applied))
	}
	return append(dst, '}')
}

// appendInt appends a key and an integer value.
func appendInt(dst []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(dst, key...), v, 10)
}

// appendInts appends a key and a non-empty integer list.
func appendInts(dst []byte, key string, vs []int) []byte {
	dst = append(dst, key...)
	for i, v := range vs {
		dst = strconv.AppendInt(append(dst, "[,"[min(i, 1)]), int64(v), 10)
	}
	return append(dst, ']')
}

// hexDigits are the digits of a \u00XX escape, lower case only.
const hexDigits = "0123456789abcdef"

// appendString appends a key and s quoted: the quote and the backslash
// are escaped with a backslash, control bytes as \u00XX, and each byte of
// invalid UTF-8 becomes U+FFFD.
func appendString(dst []byte, key, s string) []byte {
	dst = append(append(dst, key...), '"')
	for _, r := range s {
		switch {
		case r == '"' || r == '\\':
			dst = append(dst, '\\', byte(r))
		case r < ' ':
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[r>>4], hexDigits[r&0xF])
		default:
			dst = utf8.AppendRune(dst, r)
		}
	}
	return append(dst, '"')
}

// decodeMessage decodes one request line into *m, replacing what it held.
func decodeMessage(line []byte, m *message) error {
	d := decoder{data: line}
	*m = message{}
	d.message(m, 0)
	return d.end()
}

// decodeReply decodes one reply line into *r, replacing what it held.
func decodeReply(line []byte, r *reply) error {
	d := decoder{data: line}
	*r = reply{}
	d.reply(r)
	return d.end()
}

// decoder is a cursor over one line. The first refusal is kept in err
// and ends the scan: every step after it reads nothing.
type decoder struct {
	data []byte
	off  int
	err  error
}

// fail refuses the line at the cursor, unless it is refused already.
func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%s at byte %d", what, d.off)
	}
}

// lit consumes s if the line continues with it.
func (d *decoder) lit(s string) bool {
	if d.err != nil || len(d.data)-d.off < len(s) || string(d.data[d.off:d.off+len(s)]) != s {
		return false
	}
	d.off += len(s)
	return true
}

// expect consumes s or refuses the line.
func (d *decoder) expect(s string) {
	if !d.lit(s) {
		d.fail("expected " + s)
	}
}

// end accepts the rest of the line only if it is one newline or nothing.
func (d *decoder) end() error {
	d.lit("\n")
	if d.err == nil && d.off != len(d.data) {
		d.fail("trailing data")
	}
	return d.err
}

// message scans a message into m; depth is how many batches enclose it.
func (d *decoder) message(m *message, depth int) {
	d.expect(`{"op":`)
	m.Op = d.text()
	d.expect(`,"obj":`)
	m.Object = d.integer()
	if d.lit(`,"from":`) {
		m.From = d.nonzero()
	}
	if d.lit(`,"site":`) {
		m.Site = d.nonzero()
	}
	if d.lit(`,"sites":`) {
		m.Sites = d.ints()
	}
	if d.lit(`,"version":`) {
		m.Version = int64(d.nonzero())
	}
	if d.lit(`,"batch":`) {
		if depth == maxBatchDepth {
			d.fail("batch nested too deep")
		} else {
			m.Batch = d.batch(depth + 1)
		}
	}
	if d.lit(`,"trace":`) {
		m.Trace = d.nonempty()
	}
	if d.lit(`,"span":`) {
		m.Span = d.nonempty()
	}
	d.expect("}")
}

// reply scans a reply into r.
func (d *decoder) reply(r *reply) {
	r.OK = d.lit(`{"ok":true`)
	if !r.OK {
		d.expect(`{"ok":false`)
	}
	if d.lit(`,"err":`) {
		r.Err = d.nonempty()
	}
	if d.lit(`,"code":`) {
		r.Code = d.nonempty()
	}
	if d.lit(`,"cost":`) {
		r.Cost = int64(d.nonzero())
	}
	r.Holds = d.lit(`,"holds":true`)
	if d.lit(`,"version":`) {
		r.Version = int64(d.nonzero())
	}
	if d.lit(`,"stale":`) {
		r.Stale = d.ints()
	}
	if d.lit(`,"applied":`) {
		r.Applied = d.nonzero()
	}
	d.expect("}")
}

// batch scans a non-empty array of messages into a slice sized once.
func (d *decoder) batch(depth int) []message {
	out := make([]message, 0, d.count())
	d.expect("[")
	for d.err == nil {
		out = append(out, message{})
		d.message(&out[len(out)-1], depth)
		if !d.lit(",") {
			break
		}
	}
	d.expect("]")
	return out
}

// ints scans a non-empty array of integers into a slice sized once.
func (d *decoder) ints() []int {
	out := make([]int, 0, d.count())
	d.expect("[")
	for d.err == nil {
		out = append(out, d.integer())
		if !d.lit(",") {
			break
		}
	}
	d.expect("]")
	return out
}

// count returns how many elements the array at the cursor holds, read
// ahead without moving the cursor or checking syntax: one more than the
// commas at the array's own level that follow a byte that can end an
// element, a '}' or a digit. Commas that follow anything else are not
// counted, so a malformed line sizes no slice beyond what its
// well-formed prefix needs.
func (d *decoder) count() int {
	n, level, last := 1, 0, byte('[')
	for i := d.off + 1; i < len(d.data) && level >= 0; i++ {
		switch b := d.data[i]; b {
		case '"':
			for i++; i < len(d.data) && d.data[i] != '"'; i++ {
				if d.data[i] == '\\' {
					i++
				}
			}
		case '[', '{':
			level++
		case ']', '}':
			level--
		case ',':
			if level == 0 && (last == '}' || '0' <= last && last <= '9') {
				n++
			}
		}
		if level == 0 && i < len(d.data) {
			last = d.data[i]
		}
	}
	return n
}

// integer scans an integer as strconv.AppendInt writes it: 0, or an
// optional minus and up to 19 digits without a leading zero, in int64's
// range. What follows is left for the next literal to refuse.
func (d *decoder) integer() int {
	if d.lit("0") {
		return 0
	}
	neg := d.lit("-")
	start := d.off
	var u uint64
	for d.off < len(d.data) && '0' <= d.data[d.off] && d.data[d.off] <= '9' && d.off-start < 19 {
		u = u*10 + uint64(d.data[d.off]-'0')
		d.off++
	}
	switch {
	case d.err != nil:
	case d.off == start || d.data[start] == '0':
		d.fail("expected integer")
	case neg && u <= 1<<63:
		return int(-u)
	case !neg && u < 1<<63:
		return int(u)
	default:
		d.fail("integer out of range")
	}
	return 0
}

// nonzero scans an omitempty integer, which the encoder writes only when
// it is not 0.
func (d *decoder) nonzero() int {
	v := d.integer()
	if v == 0 {
		d.fail("omitempty integer is 0")
	}
	return v
}

// known holds the strings a message or reply carries most: every op and
// every reply code. text returns them without allocating.
var known = [...]string{
	"read", "update", "sync", "reconcile", "place", "drop", "primary", "replicas", opBatch,
	codeBadOp, codeBadJSON, codeOversized, codeBadObject, codeBadSite, codeNotPrimary, codeNotHolder, codeStorage,
}

// text scans a string as appendString writes it.
func (d *decoder) text() string {
	d.expect(`"`)
	start, escaped := d.off, false
	for d.err == nil && d.off < len(d.data) {
		r, size := utf8.DecodeRune(d.data[d.off:])
		switch {
		case r == '"':
			raw := d.data[start:d.off]
			d.off++
			if escaped {
				var buf [64]byte
				return string(unquote(buf[:0], raw))
			}
			for _, s := range known {
				if string(raw) == s {
					return s
				}
			}
			return string(raw)
		case r == '\\':
			escaped = true
			if _, size = unescape(d.data[d.off:]); size == 0 {
				d.fail("escape the encoder does not write")
			}
		case r < ' ' || r == utf8.RuneError && size == 1:
			d.fail("control byte or invalid UTF-8 in string")
		}
		d.off += size
	}
	d.fail("unterminated string")
	return ""
}

// nonempty scans an omitempty string, which the encoder writes only when
// it is not empty.
func (d *decoder) nonempty() string {
	s := d.text()
	if s == "" {
		d.fail("omitempty string is empty")
	}
	return s
}

// unescape returns the byte that the escape opening s stands for and how
// many bytes of s it takes: \", \\ or \u00XX below \u0020 in lower-case
// hex. It returns 0 bytes taken for any other escape.
func unescape(s []byte) (byte, int) {
	switch {
	case len(s) >= 2 && (s[1] == '"' || s[1] == '\\'):
		return s[1], 2
	case len(s) < 6 || string(s[1:4]) != "u00":
		return 0, 0
	}
	hi, lo := strings.IndexByte("01", s[4]), strings.IndexByte(hexDigits, s[5])
	if hi < 0 || lo < 0 {
		return 0, 0
	}
	return byte(hi<<4 | lo), 6
}

// unquote appends the string that raw, a string's contents with its
// escapes checked by text, stands for.
func unquote(dst, raw []byte) []byte {
	for i := 0; i < len(raw); {
		if raw[i] != '\\' {
			dst = append(dst, raw[i])
			i++
			continue
		}
		b, n := unescape(raw[i:])
		dst = append(dst, b)
		i += n
	}
	return dst
}

// lineReader reads newline-terminated lines off a connection. A line
// that fits the reader's buffer is returned in place; a longer one is
// gathered in long, kept for the next. Either is valid until the next
// call.
type lineReader struct {
	r    *bufio.Reader
	long []byte
}

// next reads one line of at most max bytes. A longer one returns
// errOversized; a stream that ends mid-line returns what it got with
// the read error.
func (lr *lineReader) next(max int) ([]byte, error) {
	line, err := lr.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		lr.long = append(lr.long[:0], line...)
		for err == bufio.ErrBufferFull && len(lr.long) <= max {
			line, err = lr.r.ReadSlice('\n')
			lr.long = append(lr.long, line...)
		}
		line = lr.long
	}
	if len(line) > max {
		return nil, errOversized
	}
	return line, err
}
