package workload

import (
	"math"
	"sort"
	"testing"
)

func TestGenerateZipfDimensionsAndValidity(t *testing.T) {
	p, err := GenerateZipf(NewZipfSpec(12, 40, 0.05, 0.15, 0.8), 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Sites() != 12 || p.Objects() != 40 {
		t.Fatalf("dims %d×%d", p.Sites(), p.Objects())
	}
}

func TestGenerateZipfSkewsPopularity(t *testing.T) {
	p, err := GenerateZipf(NewZipfSpec(10, 100, 0.05, 0.15, 1.0), 2)
	if err != nil {
		t.Fatal(err)
	}
	totals := make([]float64, p.Objects())
	for k := range totals {
		totals[k] = float64(p.TotalReads(k))
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(totals)))
	var top10, all float64
	for i, v := range totals {
		if i < 10 {
			top10 += v
		}
		all += v
	}
	// With s=1 over 100 objects, the top 10% of objects carry roughly half
	// the traffic (H(10)/H(100) ≈ 0.56); uniform workloads would carry 10%.
	if share := top10 / all; share < 0.35 {
		t.Fatalf("top-10 objects carry %.2f of reads; Zipf skew missing", share)
	}
}

func TestGenerateZipfZeroSkewIsFlat(t *testing.T) {
	p, err := GenerateZipf(NewZipfSpec(10, 50, 0.05, 0.15, 0), 3)
	if err != nil {
		t.Fatal(err)
	}
	var minT, maxT int64 = 1 << 62, 0
	for k := 0; k < p.Objects(); k++ {
		if v := p.TotalReads(k); v < minT {
			minT = v
		} else if v > maxT {
			maxT = v
		}
	}
	// Multinomial noise only: the extremes stay within a small factor.
	if maxT > 3*minT {
		t.Fatalf("skew-0 read totals range %d..%d; should be near-uniform", minT, maxT)
	}
}

func TestGenerateZipfVolumeComparableToUniform(t *testing.T) {
	z, err := GenerateZipf(NewZipfSpec(10, 50, 0.05, 0.15, 0.9), 4)
	if err != nil {
		t.Fatal(err)
	}
	u, err := Generate(NewSpec(10, 50, 0.05, 0.15), 4)
	if err != nil {
		t.Fatal(err)
	}
	var zTotal, uTotal int64
	for k := 0; k < 50; k++ {
		zTotal += z.TotalReads(k)
		uTotal += u.TotalReads(k)
	}
	ratio := float64(zTotal) / float64(uTotal)
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("Zipf volume %d vs uniform %d (ratio %.2f); should match", zTotal, uTotal, ratio)
	}
}

func TestGenerateZipfValidation(t *testing.T) {
	tests := []struct {
		name string
		spec ZipfSpec
	}{
		{"negative skew", NewZipfSpec(5, 5, 0.05, 0.15, -1)},
		{"NaN skew", NewZipfSpec(5, 5, 0.05, 0.15, math.NaN())},
		{"infinite skew", NewZipfSpec(5, 5, 0.05, 0.15, math.Inf(1))},
		{"zero sites", NewZipfSpec(0, 5, 0.05, 0.15, 1)},
		{"NaN update ratio", NewZipfSpec(5, 5, math.NaN(), 0.15, 1)},
		{"capacities overflow int64", NewZipfSpec(5, 5, 0.05, 1e300, 1)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := GenerateZipf(tt.spec, 1); err == nil {
				t.Fatal("invalid spec accepted")
			}
		})
	}
}

func TestGenerateZipfDeterministic(t *testing.T) {
	a, err := GenerateZipf(NewZipfSpec(8, 20, 0.05, 0.15, 0.7), 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateZipf(NewZipfSpec(8, 20, 0.05, 0.15, 0.7), 9)
	if err != nil {
		t.Fatal(err)
	}
	if a.DPrime() != b.DPrime() {
		t.Fatal("same seed produced different Zipf instances")
	}
}
