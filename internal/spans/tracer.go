package spans

import (
	"strconv"
	"sync/atomic"
	"time"
)

// Clock supplies span timestamps. The tracing layer never feeds time
// back into replication decisions, so the clock only has to be
// monotonic per process, not synchronized.
type Clock interface {
	// Now returns the current reading. Logical clocks must be strictly
	// increasing so sibling spans never share a timestamp.
	Now() int64
}

// logicalClock is a strictly increasing tick counter: every reading
// advances it by one. Under serial traffic this makes span timestamps —
// and therefore the whole span file — a pure function of the request
// sequence, which is what lets seeded chaos runs assert byte-identical
// span trees.
type logicalClock struct{ n atomic.Int64 }

// newLogicalClock returns a clock starting at tick 1.
func newLogicalClock() *logicalClock { return &logicalClock{} }

// Now advances and returns the tick.
func (c *logicalClock) Now() int64 { return c.n.Add(1) }

// WallClock reads the system clock in nanoseconds. Use it for live
// profiling; it trades byte-determinism for real durations.
type WallClock struct{}

// Now returns time.Now().UnixNano().
func (WallClock) Now() int64 { return time.Now().UnixNano() }

// Tracer mints trace and span IDs and hands finished spans to an
// Exporter. One Tracer is shared by every node in a cluster (and the
// coordinator), so IDs are globally unique and, under serial traffic,
// deterministic. A nil *Tracer is valid and produces nil spans
// everywhere, so instrumented code needs no tracing-enabled branches.
type Tracer struct {
	clock  Clock
	exp    Exporter
	sample int64

	roots  atomic.Int64 // all root requests seen (sampling denominator)
	traces atomic.Int64 // sampled traces (trace ID counter)
	spans  atomic.Int64 // span ID counter
}

// New returns a tracer exporting to exp with a fresh logical clock and
// no sampling (every root kept). Configure with SetClock/SetSample
// before the first span is created.
func New(exp Exporter) *Tracer {
	return &Tracer{clock: newLogicalClock(), exp: exp, sample: 1}
}

// SetClock replaces the span clock. Not safe to call once spans exist.
func (t *Tracer) SetClock(c Clock) {
	if t != nil && c != nil {
		t.clock = c
	}
}

// SetSample keeps every nth root request (counter-based, so the choice
// is deterministic, not probabilistic); n < 1 is treated as 1.
func (t *Tracer) SetSample(n int64) {
	if t != nil {
		if n < 1 {
			n = 1
		}
		t.sample = n
	}
}

// Root opens a new trace for a client request. Returns nil when the
// tracer is nil or the sampler skips this request; the nil span then
// suppresses the whole tree, including wire propagation.
func (t *Tracer) Root(name string) *Span {
	if t == nil || t.exp == nil {
		return nil
	}
	if n := t.roots.Add(1); t.sample > 1 && (n-1)%t.sample != 0 {
		return nil
	}
	trace := "t" + strconv.FormatInt(t.traces.Add(1), 10)
	return t.start(trace, "", name)
}

// StartRemote opens a server-side span under wire-propagated context:
// the caller's trace ID and the exact attempt span that carried the
// message. Returns nil when the tracer is nil or the message carried no
// context (untraced or unsampled caller).
func (t *Tracer) StartRemote(trace, parent, name string) *Span {
	if t == nil || t.exp == nil || trace == "" {
		return nil
	}
	return t.start(trace, parent, name)
}

// start mints a span ID and stamps the start time.
func (t *Tracer) start(trace, parent, name string) *Span {
	return &Span{
		Trace:   trace,
		ID:      "s" + strconv.FormatInt(t.spans.Add(1), 10),
		Parent:  parent,
		Name:    name,
		Site:    -1,
		Peer:    -1,
		Object:  -1,
		Hop:     -1,
		Attempt: -1,
		Start:   t.clock.Now(),
		tr:      t,
	}
}
