package spans

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"

	"drp/internal/metrics"
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

// EventExporter bridges spans into a metrics.EventLog, so a run's
// -events JSONL stream interleaves "span" records with the existing
// solver/cluster events under one sink.
type EventExporter struct{ log *metrics.EventLog }

// NewEventExporter wraps an event log; nil yields a nil exporter, which
// composes with newMulti.
func NewEventExporter(l *metrics.EventLog) *EventExporter {
	if l == nil {
		return nil
	}
	return &EventExporter{log: l}
}

// Export emits the span as an "span" event with flattened fields.
func (e *EventExporter) Export(s *Span) {
	fields := map[string]any{
		"trace": s.Trace,
		"span":  s.ID,
		"name":  s.Name,
		"start": s.Start,
		"end":   s.End,
		"ntc":   s.NTC,
	}
	if s.Parent != "" {
		fields["parent"] = s.Parent
	}
	if s.Site >= 0 {
		fields["site"] = s.Site
	}
	if s.Peer >= 0 {
		fields["peer"] = s.Peer
	}
	if s.Object >= 0 {
		fields["obj"] = s.Object
	}
	if s.Err != "" {
		fields["err"] = s.Err
	}
	if s.Verdict != "" {
		fields["verdict"] = s.Verdict
	}
	e.log.Emit("span", fields)
}

// multi fans spans out to several exporters in order.
type multi struct{ exps []Exporter }

// newMulti composes exporters; nils are dropped. Returns nil when nothing
// remains, which disables tracing cleanly.
func newMulti(exps ...Exporter) Exporter {
	var kept []Exporter
	for _, e := range exps {
		switch v := e.(type) {
		case nil:
			continue
		case *writer:
			if v == nil {
				continue
			}
		case *Collector:
			if v == nil {
				continue
			}
		case *EventExporter:
			if v == nil {
				continue
			}
		}
		kept = append(kept, e)
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return &multi{exps: kept}
}

func (m *multi) Export(s *Span) {
	for _, e := range m.exps {
		e.Export(s)
	}
}
