package load

import (
	"math"
	"sort"
	"testing"

	"drp/internal/metrics"
	"drp/internal/xrand"
)

// The histogram itself is tested where it lives (internal/metrics:
// TestQuantileAgainstSortedOracle and its neighbours). These tests hold
// the int64 surface bench/ records nanoseconds through to the same
// contract, and go when that surface does.

// exactQuantile is the oracle: the value of rank ⌈p·n⌉ in the sorted
// sample.
func exactQuantile(sorted []int64, p float64) int64 {
	rank := int(math.Ceil(p * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1]
}

// TestQuantileAgainstSortedOracle checks true ≤ q ≤ min(max, true·(1+2^-7))
// through Record and the int64 Quantile on latency-shaped samples.
func TestQuantileAgainstSortedOracle(t *testing.T) {
	const n = 20_000
	quantiles := []float64{0.01, 0.25, 0.50, 0.90, 0.99, 0.999, 1.0}
	dists := map[string]func(rng *xrand.Source) int64{
		"uniform_1ms":  func(rng *xrand.Source) int64 { return int64(rng.Float64() * 1e6) },
		"exponential":  func(rng *xrand.Source) int64 { return int64(-math.Log1p(-rng.Float64()) * 5e5) },
		"heavy_tail":   func(rng *xrand.Source) int64 { return int64(1e3 / math.Pow(1-rng.Float64(), 1.5)) },
		"small_values": func(rng *xrand.Source) int64 { return int64(rng.Float64() * 100) },
		"constant":     func(rng *xrand.Source) int64 { return 42_000 },
	}
	for name, gen := range dists {
		t.Run(name, func(t *testing.T) {
			rng := xrand.New(7)
			h := NewHist()
			values := make([]int64, n)
			for i := range values {
				values[i] = gen(rng)
				h.Record(values[i])
			}
			sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
			if h.Count() != n {
				t.Fatalf("count = %d, want %d", h.Count(), n)
			}
			for _, p := range quantiles {
				got, exact := h.Quantile(p), exactQuantile(values, p)
				bound := min(float64(values[n-1]), float64(exact)*(1+1.0/128))
				if got < exact || float64(got) > bound {
					t.Errorf("p=%g: %d outside [%d, %.1f]", p, got, exact, bound)
				}
			}
		})
	}
}

// TestQuantileExactBelowLinearRange: integers below 256 come back as
// recorded (the recorder this replaced returned the exclusive upper edge,
// one above).
func TestQuantileExactBelowLinearRange(t *testing.T) {
	h := NewHist()
	for v := int64(0); v < 100; v++ {
		h.Record(v)
	}
	if got := h.Quantile(0.50); got != 49 { // rank ⌈0.5·100⌉ = 50 is the value 49
		t.Fatalf("p50 = %d, want 49", got)
	}
	if got := h.Quantile(1.0); got != 99 {
		t.Fatalf("p100 = %d, want 99", got)
	}
}

// TestRecordClamps checks the never-drop contract at both extremes.
func TestRecordClamps(t *testing.T) {
	h := NewHist()
	h.Record(-5)
	h.Record(1 << 60) // far beyond the bucket range
	if h.Count() != 2 {
		t.Fatalf("count = %d, want 2 (clamped, not dropped)", h.Count())
	}
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("p50 = %d, want 0 (a negative value records as zero)", got)
	}
	if got := h.Quantile(1); got != 1<<60 {
		t.Fatalf("p100 = %d, want the recorded maximum", got)
	}
}

// TestEmptyHistogram checks the zero-observation edge cases.
func TestEmptyHistogram(t *testing.T) {
	if h := NewHist(); h.Quantile(0.99) != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	if s := summarize(new(metrics.Histogram)); s != (Summary{}) {
		t.Fatalf("empty summary: %+v", s)
	}
}

// A summary's quantiles are ordered and none exceeds its max.
func TestSummarizeQuantilesWithinMax(t *testing.T) {
	h := new(metrics.Histogram)
	h.Observe(4.640e-3)
	h.Observe(4.643e-3)
	s := summarize(h)
	if s.P50MS > s.P999MS || s.P999MS > s.MaxMS || s.MaxMS != h.Max()*1e3 {
		t.Fatalf("summary out of order: %s", s)
	}
}
