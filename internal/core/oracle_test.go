package core_test

// Oracle tests: the production cost evaluator (which uses replicator-list
// gathering and a min-distance shortcut) is checked against a literal,
// unoptimised transcription of eq. 4 from the paper, over randomly
// generated instances and schemes.

import (
	"sync/atomic"
	"testing"

	"drp/internal/bitset"
	"drp/internal/core"
	"drp/internal/workload"
	"drp/internal/xrand"
)

// naiveTerms is eq. 4, written as directly as possible, with its three
// summands kept apart.
func naiveTerms(p *core.Problem, s *core.Scheme) core.CostTerms {
	var d core.CostTerms
	for k := 0; k < p.Objects(); k++ {
		v := naiveObjectTerms(p, k, func(j int) bool { return s.Has(j, k) })
		d.ReadNTC += v.ReadNTC
		d.WriteNTC += v.WriteNTC
		d.UpdateNTC += v.UpdateNTC
	}
	return d
}

// naiveObjectTerms is object k's share of eq. 4 when X_jk = holds(j).
func naiveObjectTerms(p *core.Problem, k int, holds func(j int) bool) core.CostTerms {
	var d core.CostTerms
	sp := p.Primary(k)
	for i := 0; i < p.Sites(); i++ {
		if holds(i) {
			// Σ_x w_k(x) · o_k · C(i, SP_k)
			var wTot int64
			for x := 0; x < p.Sites(); x++ {
				wTot += p.Writes(x, k)
			}
			d.UpdateNTC += wTot * p.Size(k) * p.Cost(i, sp)
			continue
		}
		// r_k(i)·o_k·min{C(i,j) : X_jk = 1} + w_k(i)·o_k·C(i,SP_k)
		minC := int64(-1)
		for j := 0; j < p.Sites(); j++ {
			if holds(j) {
				if c := p.Cost(i, j); minC < 0 || c < minC {
					minC = c
				}
			}
		}
		d.ReadNTC += p.Reads(i, k) * p.Size(k) * minC
		d.WriteNTC += p.Writes(i, k) * p.Size(k) * p.Cost(i, sp)
	}
	return d
}

// naiveCost is D, the sum of eq. 4's terms.
func naiveCost(p *core.Problem, s *core.Scheme) int64 { return naiveTerms(p, s).Total() }

// randomScheme adds random replicas until several placements in a row fail.
func randomScheme(p *core.Problem, rng *xrand.Source) *core.Scheme {
	s := core.NewScheme(p)
	failures := 0
	for failures < 50 {
		if s.Add(rng.Intn(p.Sites()), rng.Intn(p.Objects())) != nil {
			failures++
		} else {
			failures = 0
		}
	}
	return s
}

func TestEvaluatorMatchesNaiveEq4(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		p, err := workload.Generate(workload.NewSpec(8, 12, 0.05, 0.3), seed)
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(seed * 977)
		for trial := 0; trial < 5; trial++ {
			s := randomScheme(p, rng)
			want := naiveCost(p, s)
			if got := s.Cost(); got != want {
				t.Fatalf("seed %d trial %d: Cost = %d, naive eq.4 = %d", seed, trial, got, want)
			}
			ev := core.NewEvaluator(p)
			if got := ev.Cost(s.Bits()); got != want {
				t.Fatalf("seed %d trial %d: Evaluator.Cost = %d, naive = %d", seed, trial, got, want)
			}
		}
	}
}

func TestCostIsSumOfObjectCosts(t *testing.T) {
	p, err := workload.Generate(workload.NewSpec(10, 15, 0.05, 0.2), 3)
	if err != nil {
		t.Fatal(err)
	}
	s := randomScheme(p, xrand.New(17))
	var sum int64
	for k := 0; k < p.Objects(); k++ {
		sum += s.ObjectCost(k)
	}
	if got := s.Cost(); got != sum {
		t.Fatalf("Cost = %d, Σ ObjectCost = %d", got, sum)
	}
}

// TestRepriceMatchesCost prices one scheme in full, then a second one with
// only the objects whose columns differ marked dirty: each vector entry is
// that scheme's V_k, the returned sum its D, entries outside the mask are
// left alone, and every call ticks the meter once.
func TestRepriceMatchesCost(t *testing.T) {
	p, err := workload.Generate(workload.NewSpec(10, 15, 0.05, 0.2), 3)
	if err != nil {
		t.Fatal(err)
	}
	a, b := randomScheme(p, xrand.New(17)), randomScheme(p, xrand.New(18))
	ev := core.NewEvaluator(p)
	var meter atomic.Int64
	ev.SetMeter(&meter)
	check := func(what string, s *core.Scheme, v []int64) {
		t.Helper()
		for k, vk := range v {
			if want := s.ObjectCost(k); vk != want {
				t.Fatalf("%s: v[%d] = %d, V_k = %d", what, k, vk, want)
			}
		}
	}

	v := make([]int64, p.Objects())
	if d := ev.Reprice(a.Bits(), nil, v); d != a.Cost() {
		t.Fatalf("full reprice = %d, Cost = %d", d, a.Cost())
	}
	check("full reprice", a, v)

	dirty := bitset.New(p.Objects())
	for k := 0; k < p.Objects(); k++ {
		for i := 0; i < p.Sites(); i++ {
			if a.Has(i, k) != b.Has(i, k) {
				dirty.Set(k)
			}
		}
	}
	if c := dirty.Count(); c == 0 || c == p.Objects() {
		t.Fatalf("fixture: %d of %d columns differ, want some but not all", c, p.Objects())
	}
	if d := ev.Reprice(b.Bits(), dirty, v); d != b.Cost() {
		t.Fatalf("partial reprice = %d, Cost = %d", d, b.Cost())
	}
	check("partial reprice", b, v)

	const sentinel = -7
	for k := range v {
		if !dirty.Test(k) {
			v[k] = sentinel
		}
	}
	var want int64
	for k := range v {
		if dirty.Test(k) {
			want += b.ObjectCost(k)
		} else {
			want += sentinel
		}
	}
	if d := ev.Reprice(b.Bits(), dirty, v); d != want {
		t.Fatalf("reprice over untouched entries = %d, want %d", d, want)
	}
	for k, vk := range v {
		if !dirty.Test(k) && vk != sentinel {
			t.Fatalf("clean entry v[%d] overwritten with %d", k, vk)
		}
	}
	if got := meter.Load(); got != 3 {
		t.Fatalf("three reprices ticked the meter %d times", got)
	}
}

func TestBenefitBoundsActualCostDrop(t *testing.T) {
	// Placing a replica with benefit B must drop the global cost by at
	// least B·o_k: the local view ignores other sites' read improvements,
	// which are always non-negative.
	p, err := workload.Generate(workload.NewSpec(9, 10, 0.05, 0.4), 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(31)
	s := core.NewScheme(p)
	nt := core.NewNearestTable(s)
	for trial := 0; trial < 200; trial++ {
		i, k := rng.Intn(p.Sites()), rng.Intn(p.Objects())
		if s.Has(i, k) || s.Free(i) < p.Size(k) {
			continue
		}
		benefit := p.Benefit(i, k, nt.Dist(i, k))
		before := s.Cost()
		if err := s.Add(i, k); err != nil {
			t.Fatal(err)
		}
		nt.Add(i, k)
		after := s.Cost()
		drop := float64(before - after)
		if drop < benefit*float64(p.Size(k))-1e-9 {
			t.Fatalf("replica (%d,%d): drop %v < B·o = %v", i, k, drop, benefit*float64(p.Size(k)))
		}
	}
}

func TestSavingsNeverExceeds100Percent(t *testing.T) {
	p, err := workload.Generate(workload.NewSpec(6, 8, 0.02, 0.5), 9)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(77)
	for trial := 0; trial < 20; trial++ {
		s := randomScheme(p, rng)
		if sv := s.Savings(); sv > 100 {
			t.Fatalf("savings %v%% > 100%%", sv)
		}
	}
}

func TestNearestTableMatchesBruteForce(t *testing.T) {
	p, err := workload.Generate(workload.NewSpec(12, 10, 0.05, 0.3), 21)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(5)
	s := core.NewScheme(p)
	nt := core.NewNearestTable(s)
	check := func() {
		t.Helper()
		for i := 0; i < p.Sites(); i++ {
			for k := 0; k < p.Objects(); k++ {
				var want int64 = -1
				for j := 0; j < p.Sites(); j++ {
					if s.Has(j, k) {
						if c := p.Cost(i, j); want < 0 || c < want {
							want = c
						}
					}
				}
				if got := nt.Dist(i, k); got != want {
					t.Fatalf("nearest dist (%d,%d) = %d, want %d", i, k, got, want)
				}
				if !s.Has(nt.Nearest(i, k), k) {
					t.Fatalf("nearest site (%d,%d) = %d does not hold the object", i, k, nt.Nearest(i, k))
				}
			}
		}
	}
	check()
	var placed [][2]int
	for trial := 0; trial < 60; trial++ {
		i, k := rng.Intn(p.Sites()), rng.Intn(p.Objects())
		if err := s.Add(i, k); err == nil {
			nt.Add(i, k)
			placed = append(placed, [2]int{i, k})
		}
	}
	check()
	for _, ik := range placed[:len(placed)/2] {
		_ = s.Remove(ik[0], ik[1])
	}
	nt = core.NewNearestTable(s)
	check()
}
