package core_test

// Property-based tests (testing/quick) over the core data structures:
// arbitrary valid op sequences never break Scheme invariants, and the
// serialisation layer round-trips arbitrary generated instances.

import (
	"bytes"
	"testing"
	"testing/quick"

	"drp/internal/core"
	"drp/internal/workload"
	"drp/internal/xrand"
)

// TestSchemeInvariantsUnderRandomOps drives a random Add/Remove sequence
// and re-validates the full invariant set after every step batch.
func TestSchemeInvariantsUnderRandomOps(t *testing.T) {
	f := func(seed uint64) bool {
		p, err := workload.Generate(workload.NewSpec(6, 8, 0.1, 0.3), seed%64+1)
		if err != nil {
			return false
		}
		rng := xrand.New(seed)
		s := core.NewScheme(p)
		for step := 0; step < 200; step++ {
			i, k := rng.Intn(p.Sites()), rng.Intn(p.Objects())
			if rng.Bool(0.5) {
				_ = s.Add(i, k)
			} else {
				_ = s.Remove(i, k)
			}
		}
		if s.Validate() != nil {
			return false
		}
		// Cost must stay within [optimum-ish bounds]: at least 0, and the
		// savings may be negative but the scheme cost is non-negative.
		if s.Cost() < 0 {
			return false
		}
		// Round-trip through raw bits preserves everything.
		rebuilt, err := core.SchemeFromBits(p, s.Bits())
		if err != nil {
			return false
		}
		return rebuilt.Equal(s) && rebuilt.Cost() == s.Cost()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestCostMonotoneUnderZeroWrites: with no writes anywhere, adding any
// replica can never increase the cost (reads only get closer).
func TestCostMonotoneUnderZeroWrites(t *testing.T) {
	f := func(seed uint64) bool {
		p, err := workload.Generate(workload.NewSpec(6, 6, 0, 0.5), seed%64+1)
		if err != nil {
			return false
		}
		rng := xrand.New(seed)
		s := core.NewScheme(p)
		cost := s.Cost()
		for step := 0; step < 40; step++ {
			i, k := rng.Intn(p.Sites()), rng.Intn(p.Objects())
			if s.Add(i, k) != nil {
				continue
			}
			next := s.Cost()
			if next > cost {
				return false
			}
			cost = next
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestProblemRoundTripsExactly: generated instances survive JSON encoding
// bit-for-bit in every field the cost model reads.
func TestProblemRoundTripsExactly(t *testing.T) {
	f := func(seed uint64) bool {
		p, err := workload.Generate(workload.NewSpec(5, 7, 0.07, 0.25), seed%128+1)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if p.Encode(&buf) != nil {
			return false
		}
		p2, err := core.ReadProblem(&buf)
		if err != nil {
			return false
		}
		if p2.DPrime() != p.DPrime() {
			return false
		}
		for k := 0; k < p.Objects(); k++ {
			if p2.Size(k) != p.Size(k) {
				return false
			}
		}
		for i := 0; i < p.Sites(); i++ {
			if p2.Capacity(i) != p.Capacity(i) {
				return false
			}
			for j := 0; j < p.Sites(); j++ {
				if p2.Cost(i, j) != p.Cost(i, j) {
					return false
				}
			}
			for k := 0; k < p.Objects(); k++ {
				if p2.Reads(i, k) != p.Reads(i, k) || p2.Writes(i, k) != p.Writes(i, k) {
					return false
				}
			}
		}
		for k := 0; k < p.Objects(); k++ {
			if p2.Size(k) != p.Size(k) || p2.Primary(k) != p.Primary(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestSavingsConsistency: Savings is a strictly decreasing function of
// cost and equals zero exactly at D'.
func TestSavingsConsistency(t *testing.T) {
	p, err := workload.Generate(workload.NewSpec(5, 6, 0.05, 0.3), 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.Savings(p.DPrime()) != 0 {
		t.Fatal("savings at D' not zero")
	}
	if p.Savings(p.DPrime()/2) <= p.Savings(p.DPrime()) {
		t.Fatal("savings not decreasing in cost")
	}
	if p.Savings(2*p.DPrime()) >= 0 {
		t.Fatal("worse-than-D' cost did not yield negative savings")
	}
}
