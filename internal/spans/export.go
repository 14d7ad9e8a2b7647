package spans

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// Exporter receives each span exactly once, at Finish time. Finish
// order is children-before-parents, and under serial traffic it is
// deterministic, so a streaming exporter's output is too. Exporters
// must be safe for concurrent use: server-side spans finish on
// connection-handler goroutines.
type Exporter interface {
	Export(s *Span)
}

// writer streams spans as JSONL (the cmd/drptrace input format).
// Every span is flushed through to the underlying writer so a crash
// loses at most the span being written — mirroring the -events sink.
type writer struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	err error
}

// newWriter wraps w in a JSONL span exporter.
func newWriter(w io.Writer) *writer {
	return &writer{bw: bufio.NewWriter(w)}
}

// Export writes one span as a JSON line. The first error sticks and is
// reported by flush; later exports become no-ops.
func (e *writer) Export(s *Span) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		return
	}
	enc := json.NewEncoder(e.bw)
	if err := enc.Encode(s); err != nil {
		e.err = err
		return
	}
	e.err = e.bw.Flush()
}

// flush drains buffered output and returns the first write error.
func (e *writer) flush() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		return e.err
	}
	return e.bw.Flush()
}

// Collector gathers spans in memory, for tests and in-process analysis.
type Collector struct {
	mu    sync.Mutex
	spans []Span
}

// Export appends a copy of the span.
func (c *Collector) Export(s *Span) {
	cp := *s
	cp.tr = nil
	cp.done = false
	if s.Attrs != nil {
		cp.Attrs = make(map[string]string, len(s.Attrs))
		for k, v := range s.Attrs {
			cp.Attrs[k] = v
		}
	}
	c.mu.Lock()
	c.spans = append(c.spans, cp)
	c.mu.Unlock()
}

// Spans returns the collected spans in export order.
func (c *Collector) Spans() []Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Span, len(c.spans))
	copy(out, c.spans)
	return out
}

// Reset discards everything collected so far.
func (c *Collector) Reset() {
	c.mu.Lock()
	c.spans = nil
	c.mu.Unlock()
}
