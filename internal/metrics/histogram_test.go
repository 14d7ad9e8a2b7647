package metrics

import (
	"math"
	"sort"
	"sync"
	"testing"

	"drp/internal/xrand"
)

// exactQuantile is the oracle: the value of rank ⌈p·n⌉ in the sorted
// sample — the element Quantile's bucket walk lands on.
func exactQuantile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1]
}

// TestBucketIndexMonotoneAndAligned walks the value range checking the
// index is monotone, every value lies in (lower edge, upper edge] of its
// bucket, and an edge belongs to the bucket it closes.
func TestBucketIndexMonotoneAndAligned(t *testing.T) {
	prev := 0
	for v := 1e-10; v < 1e13; v *= 1.0003 {
		idx := bucketOf(v)
		if idx < prev {
			t.Fatalf("bucketOf(%g) = %d < previous %d", v, idx, prev)
		}
		prev = idx
		if lo, hi := upperEdge(idx-1), upperEdge(idx); v <= lo || v > hi {
			t.Fatalf("value %g outside bucket %d (%g, %g]", v, idx, lo, hi)
		}
	}
	for idx := 0; idx < overflow; idx++ {
		if got := bucketOf(upperEdge(idx)); got != idx {
			t.Fatalf("edge %g of bucket %d maps to bucket %d", upperEdge(idx), idx, got)
		}
	}
	for _, v := range []float64{math.Inf(1), math.MaxFloat64, math.Ldexp(1, maxExp+1)} {
		if got := bucketOf(v); got != overflow {
			t.Fatalf("bucketOf(%g) = %d, want the overflow bucket %d", v, got, overflow)
		}
	}
	for _, v := range []float64{0, -1, math.NaN(), math.Inf(-1)} {
		if got := bucketOf(v); got != 0 {
			t.Fatalf("bucketOf(%g) = %d, want 0", v, got)
		}
	}
}

// TestQuantileAgainstSortedOracle drives the histogram with latency-shaped
// samples (nanoseconds and seconds) and cost-shaped ones (small integers,
// size × C) and checks every quantile the reports use against the exact
// sorted-sample answer: true ≤ q ≤ min(max, true·(1+2^-7)), with equality
// below 256.
func TestQuantileAgainstSortedOracle(t *testing.T) {
	const n = 20_000
	quantiles := []float64{0, 0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 0.999, 1.0}
	dists := map[string]func(rng *xrand.Source) float64{
		"uniform_1ms":  func(rng *xrand.Source) float64 { return math.Floor(rng.Float64() * 1e6) },
		"exponential":  func(rng *xrand.Source) float64 { return math.Floor(-math.Log1p(-rng.Float64()) * 5e5) },
		"heavy_tail":   func(rng *xrand.Source) float64 { return math.Floor(1e3 / math.Pow(1-rng.Float64(), 1.5)) },
		"small_values": func(rng *xrand.Source) float64 { return math.Floor(rng.Float64() * 100) },
		"constant":     func(rng *xrand.Source) float64 { return 42_000 },
		"seconds":      func(rng *xrand.Source) float64 { return 14e-6 * (1 + 4*rng.Float64()) },
		// A read's cost is size × C(i, nearest): zero for a local replica.
		"ntc_per_read": func(rng *xrand.Source) float64 {
			return float64(rng.Intn(3)) * float64(1+rng.Intn(40)) * float64(1+rng.Intn(10))
		},
		"ntc_exact_band": func(rng *xrand.Source) float64 { return float64(rng.Intn(256)) },
	}
	for name, gen := range dists {
		t.Run(name, func(t *testing.T) {
			rng := xrand.New(7)
			var h Histogram
			values := make([]float64, n)
			var sum float64
			for i := range values {
				values[i] = gen(rng)
				h.Observe(values[i])
				sum += values[i]
			}
			sort.Float64s(values)
			if h.Count() != n || h.Max() != values[n-1] {
				t.Fatalf("count/max = %d/%g, want %d/%g", h.Count(), h.Max(), n, values[n-1])
			}
			if name != "seconds" && h.Sum() != sum { // integer-valued sums are exact
				t.Fatalf("sum = %g, want %g", h.Sum(), sum)
			}
			for _, p := range quantiles {
				got, exact := h.Quantile(p), exactQuantile(values, p)
				if got < exact {
					t.Errorf("p=%g: %g understates exact %g", p, got, exact)
				}
				if bound := min(h.Max(), exact*(1+1.0/(1<<subBits))); got > bound {
					t.Errorf("p=%g: %g exceeds bound %g (exact %g)", p, got, bound, exact)
				}
				if exact == math.Trunc(exact) && exact < 256 && got != exact {
					t.Errorf("p=%g: %g, want exactly %g", p, got, exact)
				}
			}
		})
	}
}

// The rank is a ceiling at every sample size: against integer arithmetic,
// the p-quantile is the smallest value with at least p of the sample at or
// below it (a nearest-rank rounding returns the 10th of 11 for p = 0.95).
func TestQuantileCeilingRankSmallSamples(t *testing.T) {
	for n := 1; n <= 160; n++ {
		var h Histogram
		for i := n - 1; i >= 0; i-- {
			h.Observe(float64(i + 1))
		}
		for _, pct := range []int{50, 95, 99} {
			rank := 1
			for rank*100 < pct*n {
				rank++
			}
			if got := h.Quantile(float64(pct) / 100); got != float64(rank) {
				t.Errorf("n=%d p%d = %g, want %d", n, pct, got, rank)
			}
		}
	}
}

// A quantile never exceeds the recorded maximum: with two values in one
// wide bucket the bucket's upper edge lies above both (the load recorder
// this type replaces printed p99.9=4.653ms max=4.643ms).
func TestQuantileNeverExceedsMax(t *testing.T) {
	var h Histogram
	h.Observe(4_640_000)
	h.Observe(4_643_000)
	if bucketOf(4_640_000) != bucketOf(4_643_000) || upperEdge(bucketOf(4_643_000)) <= 4_643_000 {
		t.Fatal("the two values must share a bucket whose edge lies above them")
	}
	for _, p := range []float64{0.5, 0.999, 1} {
		if got := h.Quantile(p); got != 4_643_000 {
			t.Errorf("p=%g: %g, want the maximum 4643000", p, got)
		}
	}
	// Beyond the bucket range there is no finite edge: the maximum stands in.
	h.Observe(1e15)
	if got := h.Quantile(1); got != 1e15 {
		t.Errorf("p100 = %g, want 1e15", got)
	}
}

// TestConcurrentAndMergedEqualSerial records one sample three ways — one
// goroutine, eight goroutines into one histogram, eight per-worker
// histograms merged — and wants all three equal bucket for bucket.
func TestConcurrentAndMergedEqualSerial(t *testing.T) {
	const workers, n = 8, 40_000
	rng := xrand.New(3)
	values := make([]float64, n)
	for i := range values {
		values[i] = math.Floor(rng.Float64() * 5e7)
	}
	var serial, shared, merged Histogram
	for _, v := range values {
		serial.Observe(v)
	}
	parts := make([]Histogram, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				shared.Observe(values[i])
				parts[w].Observe(values[i])
			}
		}(w)
	}
	wg.Wait()
	for w := range parts {
		merged.Merge(&parts[w])
	}
	merged.Merge(new(Histogram)) // an empty merge is a no-op
	for name, h := range map[string]*Histogram{"shared": &shared, "merged": &merged} {
		if h.Count() != serial.Count() || h.Sum() != serial.Sum() || h.Max() != serial.Max() {
			t.Errorf("%s: count/sum/max %d/%g/%g, serial %d/%g/%g", name,
				h.Count(), h.Sum(), h.Max(), serial.Count(), serial.Sum(), serial.Max())
		}
		for idx := range h.counts {
			if got, want := h.counts[idx].Load(), serial.counts[idx].Load(); got != want {
				t.Fatalf("%s: bucket %d holds %d, serial %d", name, idx, got, want)
			}
		}
	}
}

// The le projection is exact: at every bound of both ladders the
// cumulative count equals the number of sample values ≤ the bound,
// including values that sit on a bound.
func TestLadderProjectionMatchesOracle(t *testing.T) {
	rng := xrand.New(11)
	for name, c := range map[string]struct {
		ladder []float64
		gen    func() float64
	}{
		"latency": {LatencyBuckets(), func() float64 { return math.Exp(rng.Float64()*16 - 15) }},
		"cost":    {costBuckets(), func() float64 { return math.Floor(math.Exp(rng.Float64() * 27)) }},
	} {
		r := NewRegistry()
		h := r.Histogram("drp_x", "", c.ladder, nil)
		values := append([]float64(nil), c.ladder...)
		for i := 0; i < 5000; i++ {
			values = append(values, c.gen())
		}
		for _, v := range values {
			h.Observe(v)
		}
		sort.Float64s(values)
		for i, b := range r.Snapshot().Instruments[0].Buckets {
			want := sort.Search(len(values), func(j int) bool { return values[j] > c.ladder[i] })
			if b.LE != c.ladder[i] || b.Count != uint64(want) {
				t.Errorf("%s: le=%g count %d, want le=%g count %d", name, b.LE, b.Count, c.ladder[i], want)
			}
		}
	}
}

func TestHistogramBoundOffBucketEdgePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a bound between bucket edges did not panic")
		}
	}()
	NewRegistry().Histogram("test", "", []float64{100e-6}, nil)
}
