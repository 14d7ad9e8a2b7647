package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"math"
	"strings"
	"testing"

	"drp/internal/core"
)

func TestGenerateDimensions(t *testing.T) {
	p, err := Generate(NewSpec(20, 30, 0.05, 0.15), 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Sites() != 20 || p.Objects() != 30 {
		t.Fatalf("dims %d×%d, want 20×30", p.Sites(), p.Objects())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(NewSpec(10, 15, 0.05, 0.15), 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(NewSpec(10, 15, 0.05, 0.15), 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.DPrime() != b.DPrime() {
		t.Fatal("same seed produced different instances")
	}
	for i := 0; i < a.Sites(); i++ {
		for k := 0; k < a.Objects(); k++ {
			if a.Reads(i, k) != b.Reads(i, k) || a.Writes(i, k) != b.Writes(i, k) {
				t.Fatal("same seed produced different patterns")
			}
		}
	}
	c, err := Generate(NewSpec(10, 15, 0.05, 0.15), 43)
	if err != nil {
		t.Fatal(err)
	}
	if a.DPrime() == c.DPrime() {
		t.Fatal("different seeds produced identical D' (suspicious)")
	}
}

func TestGenerateReadRange(t *testing.T) {
	p, err := Generate(NewSpec(15, 20, 0.05, 0.15), 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.Sites(); i++ {
		for k := 0; k < p.Objects(); k++ {
			if r := p.Reads(i, k); r < 1 || r > 40 {
				t.Fatalf("reads(%d,%d) = %d outside [1,40]", i, k, r)
			}
		}
	}
}

func TestGenerateUpdateRatio(t *testing.T) {
	// Across many objects the mean update total should be close to U% of
	// the read total (each object's total is smeared U(T/2, 3T/2)).
	p, err := Generate(NewSpec(30, 200, 0.10, 0.15), 11)
	if err != nil {
		t.Fatal(err)
	}
	var reads, writes int64
	for k := 0; k < p.Objects(); k++ {
		reads += p.TotalReads(k)
		writes += p.TotalWrites(k)
	}
	ratio := float64(writes) / float64(reads)
	if math.Abs(ratio-0.10) > 0.02 {
		t.Fatalf("aggregate update ratio %v, want ~0.10", ratio)
	}
}

func TestGenerateObjectSizes(t *testing.T) {
	p, err := Generate(NewSpec(5, 500, 0.05, 0.15), 13)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for k := 0; k < p.Objects(); k++ {
		sz := p.Size(k)
		if sz < 1 || sz > 69 {
			t.Fatalf("size %d outside [1,69]", sz)
		}
		total += sz
	}
	mean := float64(total) / float64(p.Objects())
	if math.Abs(mean-35) > 3 {
		t.Fatalf("mean object size %v, want ~35", mean)
	}
}

func TestGenerateCapacities(t *testing.T) {
	p, err := Generate(NewSpec(40, 100, 0.05, 0.20), 17)
	if err != nil {
		t.Fatal(err)
	}
	var s float64
	for k := 0; k < p.Objects(); k++ {
		s += float64(p.Size(k))
	}
	var total float64
	for i := 0; i < p.Sites(); i++ {
		total += float64(p.Capacity(i))
	}
	mean := total / float64(p.Sites())
	// Mean capacity ≈ C·S (uniform over [C·S/2, 3C·S/2]); primaries-fit
	// adjustment can only raise it slightly.
	if mean < 0.15*s || mean > 0.3*s {
		t.Fatalf("mean capacity %v, want around %v", mean, 0.2*s)
	}
}

func TestGeneratePrimariesFit(t *testing.T) {
	// Even with absurdly small capacity ratios, primaries must fit so the
	// initial scheme is feasible.
	p, err := Generate(NewSpec(4, 80, 0.05, 0.001), 19)
	if err != nil {
		t.Fatal(err)
	}
	used := make([]int64, p.Sites())
	for k := 0; k < p.Objects(); k++ {
		used[p.Primary(k)] += p.Size(k)
	}
	for i := 0; i < p.Sites(); i++ {
		if used[i] > p.Capacity(i) {
			t.Fatalf("site %d: primaries use %d > capacity %d", i, used[i], p.Capacity(i))
		}
	}
}

func TestGenerateSingleSite(t *testing.T) {
	p, err := Generate(NewSpec(1, 5, 0.05, 0.15), 23)
	if err != nil {
		t.Fatal(err)
	}
	if p.DPrime() != 0 {
		t.Fatalf("single-site D' = %d, want 0 (all traffic local)", p.DPrime())
	}
}

func TestSpecValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"no sites", func(s *Spec) { s.Sites = 0 }},
		{"no objects", func(s *Spec) { s.Objects = 0 }},
		{"negative update ratio", func(s *Spec) { s.UpdateRatio = -0.1 }},
		{"negative capacity ratio", func(s *Spec) { s.CapacityRatio = -1 }},
		{"NaN update ratio", func(s *Spec) { s.UpdateRatio = math.NaN() }},
		{"infinite update ratio", func(s *Spec) { s.UpdateRatio = math.Inf(1) }},
		{"update totals overflow int64", func(s *Spec) { s.UpdateRatio = 1e300 }},
		{"NaN capacity ratio", func(s *Spec) { s.CapacityRatio = math.NaN() }},
		{"infinite capacity ratio", func(s *Spec) { s.CapacityRatio = math.Inf(1) }},
		{"capacities overflow int64", func(s *Spec) { s.CapacityRatio = 1e300 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			spec := NewSpec(5, 5, 0.05, 0.15)
			tt.mutate(&spec)
			if _, err := Generate(spec, 1); err == nil {
				t.Fatal("invalid spec accepted")
			}
		})
	}
}

// TestGeneratedInstancesPinned pins the SHA-256 of every instance the two
// Section 6.1 generators build over M = 1…9, N ∈ {1, 7, 40}, three (U, C)
// pairs and three Zipf skews. A refactor of the generators must keep each
// instance byte for byte. The sweep kills a reordered draw sequence (sizes
// drawn before update totals), a dropped grow-to-fit step (C = 0 leaves
// every primary unhoused) and a one-site network path that draws
// differently from M ≥ 2.
func TestGeneratedInstancesPinned(t *testing.T) {
	uniform, zipf := sha256.New(), sha256.New()
	pin := func(h hash.Hash, p *core.Problem, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Encode(h); err != nil {
			t.Fatal(err)
		}
	}
	for m := 1; m <= 9; m++ {
		for _, n := range []int{1, 7, 40} {
			for _, uc := range [][2]float64{{0.05, 0.15}, {0, 0}, {0.10, 0.02}} {
				seed := uint64(100*m + n)
				p, err := Generate(NewSpec(m, n, uc[0], uc[1]), seed)
				pin(uniform, p, err)
				for _, skew := range []float64{0, 0.8, 2} {
					p, err := GenerateZipf(NewZipfSpec(m, n, uc[0], uc[1], skew), seed)
					pin(zipf, p, err)
				}
			}
		}
	}
	for _, c := range []struct {
		name string
		h    hash.Hash
		want string
	}{
		{"Generate", uniform, "d2bf65b292ac8cd7d5982b700dc9fd1a8673652b45cf9bf0df830c878be18346"},
		{"GenerateZipf", zipf, "a09d06bd1e5ce3b4ed8e22cb16bc3b5f4fcb5e57119d6539cb65683e4eccf2e5"},
	} {
		if got := hex.EncodeToString(c.h.Sum(nil)); got != c.want {
			t.Errorf("%s instances digest %s, want %s", c.name, got, c.want)
		}
	}
}

// TestRatiosDrawingPastMaxDrawsRejected: an update ratio, or a change
// ratio Ch, that would add more than maxDraws requests, one RNG draw each,
// is rejected by name before any is drawn. Both were drawn one by one:
// these two ratios took 21 s, and larger finite ones hours.
func TestRatiosDrawingPastMaxDrawsRejected(t *testing.T) {
	spec := NewSpec(5, 12, 0.05, 0.15)
	p, err := Generate(spec, 11)
	if err != nil {
		t.Fatal(err)
	}
	var reads int64
	for k := 0; k < p.Objects(); k++ {
		reads += p.TotalReads(k)
	}
	// The reads are drawn before the updates, so they are the same at any U.
	spec.UpdateRatio = 1.01 * maxDraws / (1.5 * float64(reads))
	if _, err := Generate(spec, 11); err == nil || !strings.Contains(err.Error(), "update") {
		t.Errorf("U=%v: error %v, want one naming the update ratio", spec.UpdateRatio, err)
	}
	// Every object's reads grow: Ch·reads requests.
	ch := 1.01 * maxDraws / float64(reads)
	if _, _, err := ApplyChange(p, ChangeSpec{Ch: ch, ObjectShare: 1, ReadShare: 1}, 1); err == nil || !strings.Contains(err.Error(), "Ch") {
		t.Errorf("Ch=%v: error %v, want one naming Ch", ch, err)
	}
}
