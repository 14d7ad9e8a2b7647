// Package metrics is the repository's zero-dependency telemetry layer: a
// concurrency-safe registry of named instruments (monotonic counters,
// last-value gauges, log-linear histograms) with Prometheus text-format
// exposition, expvar publication, deterministic JSON snapshots, a JSONL
// structured-event sink and a bridge from the solver runtime's progress
// events.
//
// The determinism contract mirrors the solver runtime's boundary-only
// discipline (DESIGN.md §7): instrumentation never draws randomness and
// never feeds back into a solver's decisions, so an instrumented run is
// bit-identical to an uninstrumented one at any worker count. Counter adds
// and histogram observations commute, and every histogram in this
// repository observes integer-valued quantities (NTC units) whose float64
// sums stay exact below 2^53 — so counter and histogram snapshots of a
// deterministic run are themselves identical at any worker count, which the
// tests pin. Gauges are last-writer-wins and timing instruments measure
// wall clock; both are excluded from determinism comparisons (see
// Snapshot.Deterministic).
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind discriminates the instrument types.
type Kind string

// Instrument kinds.
const (
	kindCounter   Kind = "counter"
	kindGauge     Kind = "gauge"
	kindHistogram Kind = "histogram"
)

// Labels attach constant dimensions to an instrument. Instruments with the
// same name but different label sets are distinct time series of one family
// and must share a kind.
type Labels map[string]string

// Counter is a monotonically increasing integer, safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n; negative n panics (counters only go up).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("metrics: counter add of negative %d", n))
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// gauge is a last-writer-wins float value, safe for concurrent use.
type gauge struct {
	bits atomic.Uint64
}

// set stores v.
func (g *gauge) set(v float64) { g.bits.Store(math.Float64bits(v)) }

// value returns the current value.
func (g *gauge) value() float64 { return math.Float64frombits(g.bits.Load()) }

// The histogram's resolution and range. Each power-of-two band of the
// value range splits into 2^subBits linear sub-buckets, so a bucket's
// upper edge is within a factor 1 + 2^-subBits (under 0.8 %) of any value
// in it, and every integer below 2^(subBits+1) = 256 has a bucket of its
// own. The bands run from 2^minExp (under a nanosecond, when the unit is
// seconds) to 2^maxExp (over an hour in nanoseconds, and above any NTC an
// int64 instance produces per request).
const (
	subBits   = 7
	minExp    = -30
	maxExp    = 42
	mantShift = 52 - subBits

	// firstKey is a float64's exponent and top subBits mantissa bits at
	// 2^minExp. Bucket 0 holds v ≤ 0, bucket 1 holds (0, 2^minExp],
	// buckets 2 … overflow-1 are the log-linear ones and the overflow
	// bucket holds everything above 2^maxExp.
	firstKey   = (1023 + minExp) << subBits
	overflow   = (maxExp-minExp)<<subBits + 2
	numBuckets = overflow + 1
)

// bucketOf maps a value to its bucket. Buckets are upper-inclusive, (lo,
// hi], so that a cumulative count at an edge is exactly Prometheus's le:
// the bits of the next float64 below v, shifted down to exponent and
// leading mantissa bits, index the bucket directly.
func bucketOf(v float64) int {
	if !(v > 0) {
		return 0
	}
	idx := int((math.Float64bits(v)-1)>>mantShift) - firstKey + 2
	if idx < 1 {
		return 1
	}
	if idx > overflow {
		return overflow
	}
	return idx
}

// upperEdge returns the inclusive upper edge of a bucket.
func upperEdge(idx int) float64 {
	switch {
	case idx == 0:
		return 0
	case idx >= overflow:
		return math.Inf(1)
	}
	return math.Float64frombits(uint64(firstKey+idx-1) << mantShift)
}

// Histogram is the repository's one recorder of a distribution: a
// log-linear histogram of non-negative values, whatever their unit —
// request latencies in seconds or nanoseconds, per-read transfer costs,
// scheme costs. It tracks count, sum and maximum beside the buckets. The
// zero value is empty and ready to use; all methods are safe for
// concurrent use.
type Histogram struct {
	counts  [numBuckets]atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
	maxBits atomic.Uint64
}

// Observe records one value. Negative values and NaN record as zero, and
// values beyond the bucket range land in an overflow bucket that reports
// the maximum, so no observation is dropped or understated.
func (h *Histogram) Observe(v float64) {
	if !(v > 0) {
		v = 0
	}
	// Maximum first, count last: a reader that sees an observation in a
	// bucket also sees a maximum that covers it, and never a count ahead
	// of the buckets.
	h.raiseMax(v)
	h.counts[bucketOf(v)].Add(1)
	h.addSum(v)
	h.count.Add(1)
}

// raiseMax lifts the maximum to v; the bits of non-negative floats order
// as the values do.
func (h *Histogram) raiseMax(v float64) {
	for bits := math.Float64bits(v); ; {
		old := h.maxBits.Load()
		if bits <= old || h.maxBits.CompareAndSwap(old, bits) {
			return
		}
	}
}

func (h *Histogram) addSum(v float64) {
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Max returns the largest observed value (0 when empty).
func (h *Histogram) Max() float64 { return math.Float64frombits(h.maxBits.Load()) }

// Quantile returns an upper bound on the p-quantile of the observed
// values: the upper edge of the bucket holding the value of rank ⌈p·n⌉
// (1-indexed), clamped to the maximum. With t the true value of that rank,
//
//	t ≤ Quantile(p) ≤ min(Max, t·(1 + 2^-7))
//
// so it never understates and never reports a value that was not reached;
// integers below 256 come back exactly. p outside (0, 1] clamps and an
// empty histogram reports 0. Observers running during the call may or may
// not be counted.
func (h *Histogram) Quantile(p float64) float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := uint64(1)
	if p >= 1 {
		rank = n
	} else if p > 0 {
		rank = max(1, uint64(math.Ceil(p*float64(n))))
	}
	var seen uint64
	for idx := range h.counts {
		if seen += h.counts[idx].Load(); seen >= rank {
			return min(upperEdge(idx), h.Max())
		}
	}
	return h.Max()
}

// cumulative projects the buckets onto a ladder of ascending bucket edges:
// out[i] is the number of observations ≤ ladder[i], exactly.
func (h *Histogram) cumulative(ladder []float64) []uint64 {
	out := make([]uint64, len(ladder))
	var cum uint64
	next := 0
	for i, bound := range ladder {
		for end := bucketOf(bound); next <= end; next++ {
			cum += h.counts[next].Load()
		}
		out[i] = cum
	}
	return out
}

// powersOfTwo returns the count ascending bounds 2^exp, 2^(exp+step), … —
// each a bucket edge, which is what makes a ladder's cumulative counts
// exact.
func powersOfTwo(exp, step, count int) []float64 {
	out := make([]float64, count)
	for i := range out {
		out[i] = math.Ldexp(1, exp+i*step)
	}
	return out
}

// LatencyBuckets is the exposition ladder for durations in seconds —
// request latencies and adaptation wall times: 2^-20 s (0.95 µs) to 4 s in
// doublings.
func LatencyBuckets() []float64 { return powersOfTwo(-20, 1, 23) }

// costBuckets is the exposition ladder for NTC units — per-request
// transfer costs and best-so-far scheme costs: 1 to 2^38 (~2.7e11) in
// powers of four.
func costBuckets() []float64 { return powersOfTwo(0, 2, 20) }

// entry is one registered instrument.
type entry struct {
	name     string
	help     string
	labels   Labels
	labelStr string // rendered {k="v",...}, sorted by key; "" when unlabelled
	kind     Kind

	counter *Counter
	gauge   *gauge
	hist    *Histogram
	ladder  []float64 // histograms: the le bounds of exposition and snapshots
}

// Registry holds named instruments. Instrument getters are get-or-create:
// the first call registers, later calls with the same (name, labels) return
// the same instrument; a kind conflict panics (programmer error, as with
// expvar). The zero Registry is not usable — call NewRegistry.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// Counter returns the counter registered under name+labels, creating it on
// first use.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	e := r.get(name, help, labels, kindCounter)
	return e.counter
}

// gauge returns the gauge registered under name+labels, creating it on
// first use.
func (r *Registry) gauge(name, help string, labels Labels) *gauge {
	e := r.get(name, help, labels, kindGauge)
	return e.gauge
}

// Histogram returns the histogram registered under name+labels, creating it
// on first use. bounds is the short ascending ladder /metrics and snapshots
// project the histogram onto as cumulative le buckets; quantiles do not
// use it. Every bound must be a bucket edge (powers of two and integers
// below 256 are) so the projection is exact. Later calls may pass nil
// bounds; non-nil bounds that disagree with the registered ones panic.
func (r *Registry) Histogram(name, help string, bounds []float64, labels Labels) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := name + renderLabels(labels)
	if e, ok := r.entries[key]; ok {
		if e.kind != kindHistogram {
			panic(fmt.Sprintf("metrics: %s already registered as %s", key, e.kind))
		}
		if bounds != nil && !slices.Equal(bounds, e.ladder) {
			panic(fmt.Sprintf("metrics: %s re-registered with different bounds", key))
		}
		return e.hist
	}
	if len(bounds) == 0 {
		panic(fmt.Sprintf("metrics: histogram %s needs bucket bounds", key))
	}
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("metrics: histogram %s bounds not ascending", key))
	}
	for _, b := range bounds {
		if upperEdge(bucketOf(b)) != b {
			panic(fmt.Sprintf("metrics: histogram %s bound %v is not a bucket edge", key, b))
		}
	}
	h := new(Histogram)
	r.register(key, &entry{name: name, help: help, labels: copyLabels(labels), labelStr: renderLabels(labels), kind: kindHistogram, hist: h, ladder: slices.Clone(bounds)})
	return h
}

func (r *Registry) get(name, help string, labels Labels, kind Kind) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := name + renderLabels(labels)
	if e, ok := r.entries[key]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("metrics: %s already registered as %s, requested %s", key, e.kind, kind))
		}
		return e
	}
	e := &entry{name: name, help: help, labels: copyLabels(labels), labelStr: renderLabels(labels), kind: kind}
	switch kind {
	case kindCounter:
		e.counter = &Counter{}
	case kindGauge:
		e.gauge = &gauge{}
	}
	r.register(key, e)
	return e
}

func (r *Registry) register(key string, e *entry) {
	checkName(e.name)
	for k := range e.labels {
		checkName(k)
	}
	// A family (shared name) must keep one kind across label sets; scan is
	// fine at this registry's size.
	for _, other := range r.entries {
		if other.name == e.name && other.kind != e.kind {
			panic(fmt.Sprintf("metrics: family %s mixes kinds %s and %s", e.name, other.kind, e.kind))
		}
	}
	r.entries[key] = e
}

// sorted returns the entries ordered by (name, labelStr) — the single
// deterministic ordering behind exposition and snapshots.
func (r *Registry) sorted() []*entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labelStr < out[j].labelStr
	})
	return out
}

func copyLabels(l Labels) Labels {
	if len(l) == 0 {
		return nil
	}
	out := make(Labels, len(l))
	for k, v := range l {
		out[k] = v
	}
	return out
}

// renderLabels serialises a label set as {k="v",k2="v2"} with keys sorted;
// empty sets render as "".
func renderLabels(l Labels) string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// checkName enforces the Prometheus metric/label name charset
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func checkName(name string) {
	if name == "" {
		panic("metrics: empty name")
	}
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			panic(fmt.Sprintf("metrics: invalid name %q", name))
		}
	}
}
