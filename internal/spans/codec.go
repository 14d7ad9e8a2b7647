package spans

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// maxLine bounds a single encoded span, protecting Decode from
// adversarial input (the codec is fuzzed).
const maxLine = 1 << 20

// validate checks the structural invariants every well-formed span
// satisfies: identity fields present, the interval ordered, NTC
// non-negative, and topology indices at or above the -1 sentinel.
func (s *Span) validate() error {
	switch {
	case s == nil:
		return fmt.Errorf("spans: nil span")
	case s.Trace == "":
		return fmt.Errorf("spans: empty trace id")
	case s.ID == "":
		return fmt.Errorf("spans: empty span id")
	case s.Name == "":
		return fmt.Errorf("spans: span %s has no name", s.ID)
	case s.End < s.Start:
		return fmt.Errorf("spans: span %s ends (%d) before it starts (%d)", s.ID, s.End, s.Start)
	case s.NTC < 0:
		return fmt.Errorf("spans: span %s has negative ntc %d", s.ID, s.NTC)
	case s.Site < -1 || s.Peer < -1 || s.Object < -1 || s.Hop < -1 || s.Attempt < -1:
		return fmt.Errorf("spans: span %s has index below -1 sentinel", s.ID)
	}
	return nil
}

// Encode writes spans as JSONL, one compact object per line — the same
// format the writer exporter streams and Decode reads back.
func Encode(w io.Writer, sps []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range sps {
		if err := sps[i].validate(); err != nil {
			return err
		}
		if err := enc.Encode(&sps[i]); err != nil {
			return fmt.Errorf("spans: encode: %w", err)
		}
	}
	return bw.Flush()
}

// Decode reads a JSONL span stream, validating every line. Blank lines
// are skipped so concatenated files decode cleanly.
func Decode(r io.Reader) ([]Span, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	var out []Span
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var s Span
		dec := json.NewDecoder(bytes.NewReader(raw))
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("spans: line %d: %w", line, err)
		}
		// One object per line: trailing bytes mean a malformed stream.
		if dec.More() {
			return nil, fmt.Errorf("spans: line %d: trailing data after span object", line)
		}
		if err := s.validate(); err != nil {
			return nil, fmt.Errorf("spans: line %d: %w", line, err)
		}
		// Normalize: an empty attrs object re-encodes as absent
		// (omitempty), so fold it to nil for round-trip stability.
		if len(s.Attrs) == 0 {
			s.Attrs = nil
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("spans: read: %w", err)
	}
	return out, nil
}
