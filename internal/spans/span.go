// Package spans is a zero-dependency distributed-tracing layer for the
// netnode data plane: every client request mints a trace, every hop,
// retry attempt, remote service, queued-write flush and WAL append
// becomes a span, and trace context rides the wire protocol so spans
// emitted on remote sites stitch into one tree. Spans carry the eq. 4
// network transfer cost they directly caused, so summing NTC over a
// trace reproduces the exact accounted cost the chaos suite asserts
// a priori (DESIGN.md §14 states the attribution rule).
//
// Determinism: with the logical Clock and serial traffic, span IDs,
// timestamps and export order are pure functions of the seed and fault
// plan, so two identical runs produce byte-identical span files
// (addresses inside error strings are redacted to keep ephemeral ports
// out of the bytes).
package spans

import (
	"regexp"
	"strings"
)

// Span is one timed operation in a trace. Integer topology fields
// (Site, Peer, Object, Hop, Attempt) use -1 as "not applicable" and are
// always marshalled, because 0 is a valid site/object index. Start and
// End are Clock readings — monotonic ticks under the logical clock,
// UnixNano under the wall clock. NTC is the network transfer cost this
// span *directly* caused (never inherited from children), so per-trace
// sums are double-count free.
type Span struct {
	Trace   string            `json:"trace"`
	ID      string            `json:"span"`
	Parent  string            `json:"parent,omitempty"`
	Name    string            `json:"name"`
	Site    int               `json:"site"`
	Peer    int               `json:"peer"`
	Object  int               `json:"obj"`
	Hop     int               `json:"hop"`
	Attempt int               `json:"attempt"`
	Start   int64             `json:"start"`
	End     int64             `json:"end"`
	NTC     int64             `json:"ntc"`
	Err     string            `json:"err,omitempty"`
	Verdict string            `json:"verdict,omitempty"`
	Attrs   map[string]string `json:"attrs,omitempty"`

	tr   *Tracer
	done bool
}

// Dur returns the span's duration in clock units.
func (s *Span) Dur() int64 {
	if s == nil {
		return 0
	}
	return s.End - s.Start
}

// Child starts a sub-span. A nil receiver returns nil, so an unsampled
// or untraced request costs nothing and propagates no wire context.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.start(s.Trace, s.ID, name)
}

// Finish stamps the end time and exports the span. Safe to call on nil
// and idempotent, so deferred finishes compose with early returns.
func (s *Span) Finish() {
	if s == nil || s.done {
		return
	}
	s.done = true
	s.End = s.tr.clock.Now()
	s.tr.exp.Export(s)
}

// Context returns the (trace, span) pair to propagate over the wire;
// empty strings when the span is nil (request not traced).
func (s *Span) Context() (trace, span string) {
	if s == nil {
		return "", ""
	}
	return s.Trace, s.ID
}

// SetSite records the site executing the span.
func (s *Span) SetSite(site int) {
	if s != nil {
		s.Site = site
	}
}

// SetPeer records the remote site the span talks to.
func (s *Span) SetPeer(peer int) {
	if s != nil {
		s.Peer = peer
	}
}

// SetObject records the object the span operates on.
func (s *Span) SetObject(obj int) {
	if s != nil {
		s.Object = obj
	}
}

// SetHop records the failover-hop index along eq. 4's replica ranking.
func (s *Span) SetHop(hop int) {
	if s != nil {
		s.Hop = hop
	}
}

// SetAttempt records the retry-attempt index.
func (s *Span) SetAttempt(a int) {
	if s != nil {
		s.Attempt = a
	}
}

// SetNTC records the transfer cost this span directly caused.
func (s *Span) SetNTC(v int64) {
	if s != nil {
		s.NTC = v
	}
}

// SetErr records a failure. Dial addresses are redacted (ephemeral
// ports would break byte-determinism across runs) and fault-injector
// verdicts are classified into Verdict when one is recognised.
func (s *Span) SetErr(err error) {
	if s == nil || err == nil {
		return
	}
	s.SetErrText(err.Error())
}

// SetErrText is SetErr for pre-rendered error strings (wire replies).
func (s *Span) SetErrText(msg string) {
	if s == nil || msg == "" {
		return
	}
	s.Err = redact(msg)
	if s.Verdict == "" {
		s.Verdict = classify(msg)
	}
}

// SetVerdict records an explicit outcome label (e.g. "stale", "queued").
func (s *Span) SetVerdict(v string) {
	if s != nil {
		s.Verdict = v
	}
}

// SetAttr attaches a free-form string attribute.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	if s.Attrs == nil {
		s.Attrs = make(map[string]string)
	}
	s.Attrs[k] = v
}

// addrPattern matches host:port dial targets in error strings.
var addrPattern = regexp.MustCompile(`\b\d{1,3}(?:\.\d{1,3}){3}:\d+\b`)

// redact replaces dial addresses in an error string with "addr" so span
// bytes don't depend on the ephemeral ports a run happened to bind.
func redact(msg string) string {
	return addrPattern.ReplaceAllString(msg, "addr")
}

// classify maps fault-injector error text (internal/fault) to a verdict.
func classify(msg string) string {
	if !strings.Contains(msg, "fault:") {
		return ""
	}
	switch {
	case strings.Contains(msg, "is down"):
		return "crashed"
	case strings.Contains(msg, "blackholed"):
		return "blackholed"
	case strings.Contains(msg, "dropped"):
		return "dropped"
	}
	return "fault"
}
