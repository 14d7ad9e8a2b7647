package core_test

import (
	"testing"

	"drp/internal/core"
	"drp/internal/workload"
	"drp/internal/xrand"
)

// priceSum charges every request the problem counts — r_k(i) reads and
// w_k(i) writes from every site i of every object k — through
// NearestTable.Price with the given sites down, and sums what was served.
func priceSum(t *testing.T, p *core.Problem, s *core.Scheme, down []bool) core.CostTerms {
	t.Helper()
	nt := core.NewNearestTable(s)
	var sum core.CostTerms
	for i := 0; i < p.Sites(); i++ {
		for k := 0; k < p.Objects(); k++ {
			for _, op := range []struct {
				n     int64
				write bool
			}{{p.Reads(i, k), false}, {p.Writes(i, k), true}} {
				c, served := nt.Price(i, k, op.write, down)
				if !served {
					if down == nil {
						t.Fatalf("(%d,%d,write=%v) not served with every site up", i, k, op.write)
					}
					continue
				}
				sum.ReadNTC += op.n * c.ReadNTC
				sum.WriteNTC += op.n * c.WriteNTC
				sum.UpdateNTC += op.n * c.UpdateNTC
			}
		}
	}
	return sum
}

// literalPrice is one request's charge read straight off the serving
// rules, by scanning every site: a read goes to the nearest live replica;
// a write needs a live primary, ships to it, and the primary broadcasts to
// every live replicator but the writer and itself; the ship of a writer
// that holds a replica is its fan-in, eq. 4's update term.
func literalPrice(p *core.Problem, s *core.Scheme, i, k int, write bool, down []bool) (core.CostTerms, bool) {
	var c core.CostTerms
	if !write {
		best := int64(-1)
		for j := 0; j < p.Sites(); j++ {
			if s.Has(j, k) && !down[j] && (best < 0 || p.Cost(i, j) < best) {
				best = p.Cost(i, j)
			}
		}
		c.ReadNTC = p.Size(k) * best
		return c, best >= 0
	}
	sp := p.Primary(k)
	if down[sp] {
		return c, false
	}
	if s.Has(i, k) {
		c.UpdateNTC = p.Size(k) * p.Cost(i, sp)
	} else {
		c.WriteNTC = p.Size(k) * p.Cost(i, sp)
	}
	for j := 0; j < p.Sites(); j++ {
		if j != i && j != sp && s.Has(j, k) && !down[j] {
			c.UpdateNTC += p.Size(k) * p.Cost(sp, j)
		}
	}
	return c, true
}

// TestPriceMatchesEq4 is the per-request price's property test over
// random schemes. With every site up, the price summed over every counted
// request is eq. 4 term for term — the kernel's CostTerms and the literal
// naiveTerms alike. Under random down-sets, each request's price and
// served verdict are the literal scan's.
func TestPriceMatchesEq4(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		p, err := workload.Generate(workload.NewSpec(9, 12, 0.1, 0.3), seed)
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(seed * 131)
		for trial := 0; trial < 4; trial++ {
			s := randomScheme(p, rng)
			if trial == 0 {
				s = core.NewScheme(p)
			}
			got := priceSum(t, p, s, nil)
			if want := s.CostTerms(); got != want {
				t.Fatalf("seed %d trial %d: Σ Price = %+v, CostTerms = %+v", seed, trial, got, want)
			}
			if want := naiveTerms(p, s); got != want {
				t.Fatalf("seed %d trial %d: Σ Price = %+v, literal eq. 4 = %+v", seed, trial, got, want)
			}
			if none := priceSum(t, p, s, make([]bool, p.Sites())); none != got {
				t.Fatalf("seed %d trial %d: an empty down-set prices %+v, nil %+v", seed, trial, none, got)
			}

			nt := core.NewNearestTable(s)
			for d := 0; d < 5; d++ {
				down := make([]bool, p.Sites())
				for j := range down {
					down[j] = rng.Bool(0.3)
				}
				for i := 0; i < p.Sites(); i++ {
					for k := 0; k < p.Objects(); k++ {
						for _, write := range []bool{false, true} {
							got, served := nt.Price(i, k, write, down)
							want, wantServed := literalPrice(p, s, i, k, write, down)
							if served != wantServed || (served && got != want) {
								t.Fatalf("seed %d down %v (%d,%d,write=%v): Price = %+v,%v, literal = %+v,%v",
									seed, down, i, k, write, got, served, want, wantServed)
							}
						}
					}
				}
			}
		}
	}
}
