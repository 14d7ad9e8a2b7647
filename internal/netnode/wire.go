package netnode

import (
	"bufio"
	"fmt"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// The wire format is one JSON object per line each way: a message, then
// its reply. This file is the only code that writes or parses it.
//
// The encoders give exactly the bytes json.Marshal gives for the two
// structs: fields in declaration order, the omitempty rules, and
// encoding/json's HTML-safe string escaping. The decoders are strict
// scanners for the two fixed schemas. They accept any key order,
// whitespace between tokens, string escapes, valid UTF-8 and repeated
// keys (the last one wins), and for everything they accept they return
// what json.Unmarshal returns. They refuse what json.Unmarshal would
// refuse, and also unknown keys, keys that differ from a field name only
// in case, null, invalid UTF-8 or an unpaired surrogate escape in a
// string, a repeated "batch" key and batches nested deeper than
// maxBatchDepth.

// maxBatchDepth bounds how deep batches nest in one line. A site refuses
// any batch within a batch (serveBatch) with bad_op; the decoder reads a
// few levels so that refusal keeps its code, and bounds its recursion
// far below encoding/json's nesting limit.
const maxBatchDepth = 4

// appendMessage appends m's encoding to dst.
func appendMessage(dst []byte, m *message) []byte {
	dst = append(dst, `{"op":`...)
	dst = appendString(dst, m.Op)
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
		dst = append(dst, `,"trace":`...)
		dst = appendString(dst, m.Trace)
	}
	if m.Span != "" {
		dst = append(dst, `,"span":`...)
		dst = appendString(dst, m.Span)
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
		dst = append(dst, `,"err":`...)
		dst = appendString(dst, r.Err)
	}
	if r.Code != "" {
		dst = append(dst, `,"code":`...)
		dst = appendString(dst, r.Code)
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

// appendString appends s quoted as encoding/json quotes it: control
// bytes, the quote, the backslash and the HTML-unsafe <, > and & are
// escaped, each byte of invalid UTF-8 becomes \ufffd, and U+2028 and
// U+2029 are escaped.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, `\b`...)
			case '\f':
				dst = append(dst, `\f`...)
			case '\n':
				dst = append(dst, `\n`...)
			case '\r':
				dst = append(dst, `\r`...)
			case '\t':
				dst = append(dst, `\t`...)
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// decodeMessage decodes one request line into *m, replacing what it held.
func decodeMessage(line []byte, m *message) error {
	d := decoder{data: line}
	*m = message{}
	d.space()
	if err := d.message(m, 0); err != nil {
		return err
	}
	return d.end()
}

// decodeReply decodes one reply line into *r, replacing what it held.
func decodeReply(line []byte, r *reply) error {
	d := decoder{data: line}
	*r = reply{}
	d.space()
	if err := d.reply(r); err != nil {
		return err
	}
	return d.end()
}

// decoder is a cursor over one line.
type decoder struct {
	data []byte
	off  int
}

// fail refuses the line at the cursor.
func (d *decoder) fail(what string) error { return fmt.Errorf("%s at byte %d", what, d.off) }

// space skips JSON whitespace.
func (d *decoder) space() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// peek returns the next byte, or 0 at the end of the line.
func (d *decoder) peek() byte {
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

// end accepts the rest of the line only if it is whitespace.
func (d *decoder) end() error {
	d.space()
	if d.off != len(d.data) {
		return d.fail("trailing data")
	}
	return nil
}

// open consumes the c ('{' or '[') that opens an object or array, and
// the closing byte right after it if it is empty. It reports whether
// the first key or element follows.
func (d *decoder) open(c byte) (bool, error) {
	if d.peek() != c {
		return false, d.fail("expected " + string(c))
	}
	d.off++
	d.space()
	if d.peek() == c+2 { // '}' or ']'
		d.off++
		return false, nil
	}
	return true, nil
}

// more consumes what follows a key's value or an element: a comma, or
// the closing byte c. It reports whether another key or element follows.
func (d *decoder) more(c byte) (bool, error) {
	d.space()
	switch d.peek() {
	case ',':
		d.off++
		d.space()
		return true, nil
	case c:
		d.off++
		return false, nil
	}
	return false, d.fail("expected , or " + string(c))
}

// key scans an object key and its colon, leaving the cursor on the
// value.
func (d *decoder) key() ([]byte, error) {
	raw, escaped, err := d.str()
	if err != nil {
		return nil, err
	}
	if escaped {
		raw = unquote(nil, raw)
	}
	d.space()
	if d.peek() != ':' {
		return nil, d.fail("expected :")
	}
	d.off++
	d.space()
	return raw, nil
}

// message scans a message object into m; depth is how many batches
// enclose it.
func (d *decoder) message(m *message, depth int) error {
	batched := false
	more, err := d.open('{')
	for more && err == nil {
		var key []byte
		if key, err = d.key(); err != nil {
			break
		}
		switch string(key) {
		case "op":
			m.Op, err = d.text()
		case "obj":
			m.Object, err = d.integer()
		case "from":
			m.From, err = d.integer()
		case "site":
			m.Site, err = d.integer()
		case "sites":
			m.Sites, err = d.ints()
		case "version":
			var v int
			v, err = d.integer()
			m.Version = int64(v)
		case "batch":
			if batched || depth == maxBatchDepth {
				return d.fail("repeated or too deeply nested batch")
			}
			batched = true
			m.Batch, err = d.batch(depth + 1)
		case "trace":
			m.Trace, err = d.text()
		case "span":
			m.Span, err = d.text()
		default:
			return d.fail("unknown key")
		}
		if err == nil {
			more, err = d.more('}')
		}
	}
	return err
}

// reply scans a reply object into r.
func (d *decoder) reply(r *reply) error {
	more, err := d.open('{')
	for more && err == nil {
		var key []byte
		if key, err = d.key(); err != nil {
			break
		}
		var v int
		switch string(key) {
		case "ok":
			r.OK, err = d.boolean()
		case "err":
			r.Err, err = d.text()
		case "code":
			r.Code, err = d.text()
		case "cost":
			v, err = d.integer()
			r.Cost = int64(v)
		case "holds":
			r.Holds, err = d.boolean()
		case "version":
			v, err = d.integer()
			r.Version = int64(v)
		case "stale":
			r.Stale, err = d.ints()
		case "applied":
			r.Applied, err = d.integer()
		default:
			return d.fail("unknown key")
		}
		if err == nil {
			more, err = d.more('}')
		}
	}
	return err
}

// batch scans an array of messages into a slice sized once.
func (d *decoder) batch(depth int) ([]message, error) {
	out := make([]message, 0, d.count())
	more, err := d.open('[')
	for more && err == nil {
		out = append(out, message{})
		if err = d.message(&out[len(out)-1], depth); err == nil {
			more, err = d.more(']')
		}
	}
	return out, err
}

// ints scans an array of integers into a slice sized once.
func (d *decoder) ints() ([]int, error) {
	out := make([]int, 0, d.count())
	more, err := d.open('[')
	for more && err == nil {
		var v int
		if v, err = d.integer(); err == nil {
			out = append(out, v)
			more, err = d.more(']')
		}
	}
	return out, err
}

// count returns how many elements the array at the cursor holds, read
// ahead without moving the cursor or checking syntax (open and more do):
// one more than the commas at the array's own level that follow a byte
// that can end an element, a '}' or a digit. Commas that follow anything
// else are not counted, so a malformed line sizes no slice beyond what
// its well-formed prefix needs.
func (d *decoder) count() int {
	n, level, last := 1, 0, byte('[')
	for i := d.off + 1; i < len(d.data) && level >= 0; i++ {
		switch b := d.data[i]; b {
		case ' ', '\t', '\n', '\r':
			continue
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

// integer scans an integer literal in int64's range: an optional minus,
// then 0 or digits without a leading zero. A fraction or exponent is
// left unread for the caller to refuse, as json.Unmarshal refuses one
// into an int.
func (d *decoder) integer() (int, error) {
	neg := d.peek() == '-'
	if neg {
		d.off++
	}
	start := d.off
	var u uint64
	for d.off < len(d.data) && '0' <= d.data[d.off] && d.data[d.off] <= '9' {
		if d.off > start && d.data[start] == '0' {
			return 0, d.fail("leading zero")
		}
		if d.off-start == 19 { // 20 digits exceed every int64
			return 0, d.fail("integer out of range")
		}
		u = u*10 + uint64(d.data[d.off]-'0')
		d.off++
	}
	switch {
	case d.off == start:
		return 0, d.fail("expected integer")
	case neg && u <= 1<<63:
		return int(-u), nil
	case !neg && u < 1<<63:
		return int(u), nil
	}
	return 0, d.fail("integer out of range")
}

// boolean scans true or false.
func (d *decoder) boolean() (bool, error) {
	rest := d.data[d.off:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		d.off += 4
		return true, nil
	case len(rest) >= 5 && string(rest[:5]) == "false":
		d.off += 5
		return false, nil
	}
	return false, d.fail("expected boolean")
}

// known holds the strings a message or reply carries most: every op and
// every reply code. text returns them without allocating.
var known = [...]string{
	"read", "update", "sync", "reconcile", "place", "drop", "primary", "replicas", opBatch,
	codeBadOp, codeBadJSON, codeOversized, codeBadObject, codeBadSite, codeNotPrimary, codeNotHolder, codeStorage,
}

// text scans a string value.
func (d *decoder) text() (string, error) {
	raw, escaped, err := d.str()
	if err != nil {
		return "", err
	}
	if escaped {
		var buf [64]byte
		return string(unquote(buf[:0], raw)), nil
	}
	for _, s := range known {
		if string(raw) == s {
			return s, nil
		}
	}
	return string(raw), nil
}

// str scans a string token and returns what lies between its quotes,
// and whether that holds escapes. It refuses control bytes, invalid
// UTF-8, malformed escapes and surrogate escapes that do not pair.
func (d *decoder) str() (raw []byte, escaped bool, err error) {
	if d.peek() != '"' {
		return nil, false, d.fail("expected string")
	}
	start := d.off + 1
	for i := start; i < len(d.data); {
		switch b := d.data[i]; {
		case b == '"':
			d.off = i + 1
			return d.data[start:i], escaped, nil
		case b == '\\':
			escaped = true
			var scratch [utf8.UTFMax]byte
			_, n := unescape(scratch[:0], d.data[i:])
			if n == 0 {
				d.off = i
				return nil, false, d.fail("invalid escape")
			}
			i += n
		case b < ' ':
			d.off = i
			return nil, false, d.fail("control byte in string")
		case b < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(d.data[i:])
			if r == utf8.RuneError && size == 1 {
				d.off = i
				return nil, false, d.fail("invalid UTF-8")
			}
			i += size
		}
	}
	d.off = len(d.data)
	return nil, false, d.fail("unterminated string")
}

// unescape appends what the escape that opens s stands for to dst and
// returns how many bytes of s it took, 0 if it is malformed. A surrogate
// escape is valid only with its pair.
func unescape(dst, s []byte) ([]byte, int) {
	if len(s) < 2 {
		return dst, 0
	}
	switch c := s[1]; c {
	case '"', '\\', '/':
		return append(dst, c), 2
	case 'b':
		return append(dst, '\b'), 2
	case 'f':
		return append(dst, '\f'), 2
	case 'n':
		return append(dst, '\n'), 2
	case 'r':
		return append(dst, '\r'), 2
	case 't':
		return append(dst, '\t'), 2
	case 'u':
		r := hex4(s[2:])
		switch {
		case r < 0:
			return dst, 0
		case !utf16.IsSurrogate(r):
			return utf8.AppendRune(dst, r), 6
		case len(s) < 12 || s[6] != '\\' || s[7] != 'u':
			return dst, 0
		}
		if r = utf16.DecodeRune(r, hex4(s[8:])); r == utf8.RuneError {
			return dst, 0
		}
		return utf8.AppendRune(dst, r), 12
	}
	return dst, 0
}

// hex4 decodes the four hex digits that open s, -1 if they are not.
func hex4(s []byte) rune {
	if len(s) < 4 {
		return -1
	}
	var r rune
	for _, c := range s[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// unquote appends the string that raw, a string token's contents with
// its escapes checked by str, stands for.
func unquote(dst, raw []byte) []byte {
	for i := 0; i < len(raw); {
		if raw[i] != '\\' {
			dst = append(dst, raw[i])
			i++
			continue
		}
		var n int
		dst, n = unescape(dst, raw[i:])
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
