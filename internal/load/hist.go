package load

import (
	"fmt"

	"drp/internal/metrics"
)

// Hist is the repository's one histogram (metrics.Histogram) behind the
// int64 recording surface bench/ compiles against; a value is whatever
// unit the caller records, nanoseconds there. Nothing else uses it: the
// runner observes seconds straight into metrics.Histogram.
type Hist struct{ *metrics.Histogram }

// NewHist returns an empty histogram.
func NewHist() Hist { return Hist{new(metrics.Histogram)} }

// Record adds one value.
func (h Hist) Record(v int64) { h.Observe(float64(v)) }

// Quantile is metrics.Histogram.Quantile in the recorded unit. Bucket
// edges above 256 are integers and the maximum is a recorded value, so
// the conversion is exact.
func (h Hist) Quantile(p float64) int64 { return int64(h.Histogram.Quantile(p)) }

// Summary is the fixed quantile ladder a report prints for one op.
type Summary struct {
	Count  int64   `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	P999MS float64 `json:"p999_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// summarize freezes a histogram of latencies in seconds into the report's
// quantile ladder.
func summarize(h *metrics.Histogram) Summary {
	s := Summary{
		Count:  int64(h.Count()),
		P50MS:  h.Quantile(0.50) * 1e3,
		P90MS:  h.Quantile(0.90) * 1e3,
		P99MS:  h.Quantile(0.99) * 1e3,
		P999MS: h.Quantile(0.999) * 1e3,
		MaxMS:  h.Max() * 1e3,
	}
	if s.Count > 0 {
		s.MeanMS = h.Sum() / float64(s.Count) * 1e3
	}
	return s
}

// String renders the summary for terminal output.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3fms p50=%.3fms p90=%.3fms p99=%.3fms p99.9=%.3fms max=%.3fms",
		s.Count, s.MeanMS, s.P50MS, s.P90MS, s.P99MS, s.P999MS, s.MaxMS)
}
