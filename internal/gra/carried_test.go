package gra

import (
	"fmt"
	"sync/atomic"
	"testing"

	"drp/internal/bitset"
	"drp/internal/core"
	"drp/internal/ga"
	"drp/internal/solver"
	"drp/internal/xrand"
)

// checkCarried asserts that every individual's carried per-object costs are
// the kernel's V_k of its chromosome and sum to its cost, and that its
// carried per-site usage is a fresh walk of its chromosome, within every
// site's capacity.
func checkCarried(t *testing.T, p *core.Problem, what string, pop []ga.Individual) {
	t.Helper()
	n := p.Objects()
	for i, ind := range pop {
		s, err := core.SchemeFromBits(p, ind.Bits)
		if err != nil {
			t.Fatalf("%s %d: %v", what, i, err)
		}
		if len(ind.Objects) != n {
			t.Fatalf("%s %d carries %d per-object costs, want %d", what, i, len(ind.Objects), n)
		}
		var sum int64
		for k, vk := range ind.Objects {
			if want := s.ObjectCost(k); vk != want {
				t.Fatalf("%s %d: carried V_%d = %d, kernel prices %d", what, i, k, vk, want)
			}
			sum += vk
		}
		if sum != ind.Cost {
			t.Fatalf("%s %d: carried V_k sum to %d, cost is %d", what, i, sum, ind.Cost)
		}
		if len(ind.Usage) != p.Sites() {
			t.Fatalf("%s %d carries %d site usages, want %d", what, i, len(ind.Usage), p.Sites())
		}
		for site, used := range ind.Usage {
			var want int64
			for k := 0; k < n; k++ {
				if ind.Bits.Test(site*n + k) {
					want += p.Size(k)
				}
			}
			if used != want || used > p.Capacity(site) {
				t.Fatalf("%s %d: carried usage of site %d = %d, a walk finds %d, capacity %d", what, i, site, used, want, p.Capacity(site))
			}
		}
	}
}

// checkUnshared asserts that no two members of pop, the elite and the
// free list share a chromosome, V_k or usage buffer: a recycled buffer
// bred into must belong to nothing alive.
func checkUnshared(t *testing.T, ev *evaluator, pop []ga.Individual, elite ga.Individual) {
	t.Helper()
	seen := map[any]string{}
	all := append(append([]ga.Individual{elite}, pop...), ev.free...)
	for i, ind := range all {
		what := fmt.Sprintf("individual %d of elite, population and free list", i)
		for _, buf := range []any{ind.Bits, &ind.Objects[0], &ind.Usage[0]} {
			if other, ok := seen[buf]; ok {
				t.Fatalf("%s shares a buffer with %s", what, other)
			}
			seen[buf] = what
		}
	}
}

// TestCarriedObjectCostsMatchKernel runs GRA's generational loop at
// GOMAXPROCS 2 and checks, after every generation, that every parent, crossover child,
// mutant and the elite carries exactly the V_k the kernel prices and the
// usage a walk finds for its chromosome, and that no two of them, nor the
// recycled buffers, share storage.
func TestCarriedObjectCostsMatchKernel(t *testing.T) {
	p := gen(t, 10, 15, 0.05, 0.10, 24)
	setProcs(t, 2)
	params := smallParams(43)
	params.Generations = 25
	ev := newEvaluator(p)
	rng := xrand.New(params.Seed)
	init := seedSRA(p, params.PopSize, rng)
	seeds := make([]child, len(init))
	for i, bits := range init {
		seeds[i] = child{Individual: ev.individual(bits)}
	}
	pop := ev.evaluateAll(nil, seeds)
	checkCarried(t, p, "seed", pop)
	elite := ev.copyOf(pop[ga.Best(pop)])
	var pool, spare []ga.Individual
	for gen := 1; gen <= params.Generations; gen++ {
		pool = append(pool[:0], pop...)
		pool = ev.crossoverSubpop(pool, pop, rng)
		crossEnd := len(pool)
		pool = ev.mutationSubpop(pool, pop, rng)
		checkCarried(t, p, "crossover child", pool[len(pop):crossEnd])
		checkCarried(t, p, "mutant", pool[crossEnd:])
		if b := ga.Best(pool); pool[b].Fitness > elite.Fitness {
			elite.CopyFrom(pool[b])
		}
		pop, spare = ev.selectNext(spare, pool, params.PopSize, rng), pop
		if gen%eliteEvery == 0 {
			pop[ga.Worst(pop)].CopyFrom(elite)
		}
		checkCarried(t, p, "individual", pop)
		checkCarried(t, p, "elite", []ga.Individual{elite})
		checkUnshared(t, ev, pop, elite)
	}
}

// TestCarriedObjectCostsAfterNegativeFitnessReset covers the paper's reset:
// a chromosome costlier than D′ is overwritten with the primaries-only
// allocation, whose per-object costs are V′_k and cost D′, without another
// metered evaluation.
func TestCarriedObjectCostsAfterNegativeFitnessReset(t *testing.T) {
	// Updates at twice the read rate and room for every object everywhere:
	// replicating everything is valid and far worse than no replication.
	p := gen(t, 6, 10, 2.0, 3.0, 5)
	full := bitset.New(p.Sites() * p.Objects())
	for pos := 0; pos < full.Len(); pos++ {
		full.Set(pos)
	}
	if _, err := core.SchemeFromBits(p, full); err != nil {
		t.Fatalf("fixture: full replication invalid: %v", err)
	}
	if d := core.NewEvaluator(p).Cost(full); d <= p.DPrime() {
		t.Fatalf("fixture: full replication costs %d, not above D′ = %d", d, p.DPrime())
	}

	ev := newEvaluator(p)
	var meter atomic.Int64
	ev.pool.SetMeter(&meter)
	got := ev.evaluateAll(nil, []child{{Individual: ev.individual(full.Clone())}})[0]
	if meter.Load() != 1 {
		t.Fatalf("reset chromosome counted %d evaluations, want 1", meter.Load())
	}
	if got.Cost != p.DPrime() || got.Fitness != 0 || !got.Bits.Equal(ev.primal) {
		t.Fatalf("reset individual: cost %d, fitness %v; want the primaries-only chromosome at D′ = %d, fitness 0", got.Cost, got.Fitness, p.DPrime())
	}
	for k, vk := range got.Objects {
		if vk != p.VPrime(k) {
			t.Fatalf("reset individual: V_%d = %d, want V′_%d = %d", k, vk, k, p.VPrime(k))
		}
	}
	checkCarried(t, p, "reset individual", []ga.Individual{got})

	// End to end: a population of that one chromosome is all reset.
	params := smallParams(3)
	params.Generations = 0
	res, err := ContinueWith(p, params, []*bitset.Set{full}, solver.Run{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != p.DPrime() || !res.Population[0].Equal(ev.primal) {
		t.Fatalf("ContinueWith: cost %d, want D′ = %d from the primaries-only chromosome", res.Cost, p.DPrime())
	}
}

// TestObjectsPricedPinnedOnAdaptiveTestCase pins how many objects the
// kernel prices in a default GRA run on the paper's adaptive test case:
// seeds price all N objects, children only the objects whose column matches
// neither parent. The evaluation count, and with it the trajectory, does not
// change with that.
func TestObjectsPricedPinnedOnAdaptiveTestCase(t *testing.T) {
	if testing.Short() {
		t.Skip("a full-size GRA run")
	}
	p := gen(t, 50, 200, 0.05, 0.15, 1)
	params := DefaultParams()
	ev := newEvaluator(p)
	rng := xrand.New(params.Seed)
	res, err := evolve(ev, params, seedSRA(p, params.PopSize, rng), rng, solver.Start("gra", solver.Run{}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 16064740 || res.Evaluations != 8050 {
		t.Fatalf("cost %d after %d evaluations, recorded 16064740 after 8050", res.Cost, res.Evaluations)
	}
	if got := ev.priced.Load(); got != 705642 {
		t.Fatalf("%d objects priced over %d evaluations (ratio %.3f of N per evaluation), recorded %d",
			got, res.Evaluations, float64(got)/float64(res.Evaluations*p.Objects()), 705642)
	}
}

// TestInheritEveryWordBoundary checks foldDiff and inherit against a
// per-bit reference at N either side of one, two and three 64-bit words
// and M from one site to just past one word. Every column of a random
// child is, at random, shared with both parents, with the first only, with
// the second only or with neither (a flipped bit at a random site). The
// mask must name exactly the columns that differ, bit for bit and with
// nothing past N; inherit must take V_k from the first parent where it
// shares the column, else from the second, and leave dirty exactly the
// columns it shares with neither — or, for a mutant's one parent, with it.
func TestInheritEveryWordBoundary(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 127, 128, 129, 200} {
		for _, m := range []int{1, 2, 3, 50, 64, 65} {
			rng := xrand.New(uint64(m*1000 + n))
			ev := &evaluator{geneLen: n}
			kid := bitset.New(m * n)
			for pos := 0; pos < m*n; pos++ {
				kid.SetTo(pos, rng.Bool(1.0/3))
			}
			a, b := kid.Clone(), kid.Clone()
			diffA, diffB := make([]bool, n), make([]bool, n)
			for k := 0; k < n; k++ {
				switch rng.Intn(4) {
				case 1:
					diffA[k] = true
				case 2:
					diffB[k] = true
				case 3:
					diffA[k], diffB[k] = true, true
				}
				if diffA[k] {
					a.Flip(rng.Intn(m)*n + k)
				}
				if diffB[k] {
					b.Flip(rng.Intn(m)*n + k)
				}
			}
			for _, tc := range []struct {
				what  string
				other *bitset.Set
				want  []bool
			}{{"first parent", a, diffA}, {"second parent", b, diffB}} {
				mask := bitset.New(n)
				foldDiff(mask, kid, tc.other, n)
				if !mask.Equal(bitset.FromBools(tc.want)) {
					t.Fatalf("M=%d N=%d: foldDiff against the %s = %v, per-bit reference %v", m, n, tc.what, mask, bitset.FromBools(tc.want))
				}
			}
			objects := func(base int64) []int64 {
				v := make([]int64, n)
				for k := range v {
					v[k] = base + int64(k)
				}
				return v
			}
			pa := ga.Individual{Bits: a, Objects: objects(1 << 20)}
			pb := ga.Individual{Bits: b, Objects: objects(2 << 20)}
			for _, parents := range [][]ga.Individual{{pa}, {pa, pb}} {
				v := make([]int64, n)
				dirty := ev.inherit(v, child{Individual: ga.Individual{Bits: kid}, parents: parents}, bitset.New(n))
				want := make([]bool, n)
				for k := 0; k < n; k++ {
					switch {
					case !diffA[k]:
						if v[k] != pa.Objects[k] {
							t.Fatalf("M=%d N=%d, %d parents: v[%d] = %d, want the first parent's %d", m, n, len(parents), k, v[k], pa.Objects[k])
						}
					case len(parents) == 2 && !diffB[k]:
						if v[k] != pb.Objects[k] {
							t.Fatalf("M=%d N=%d, %d parents: v[%d] = %d, want the second parent's %d", m, n, len(parents), k, v[k], pb.Objects[k])
						}
					default:
						want[k] = true
					}
				}
				if !dirty.Equal(bitset.FromBools(want)) {
					t.Fatalf("M=%d N=%d, %d parents: dirty %v, per-bit reference %v", m, n, len(parents), dirty, bitset.FromBools(want))
				}
			}
		}
	}
}

// TestSelectNextCopiesRepeats: when selection draws a pool member more than
// once — a dominant fitness, or an all-zero pool drawn uniformly — every
// draw after the first is a copy in recycled buffers. The next population
// holds the drawn chromosomes in draw order, no two of its members share a
// buffer, and every buffer of the pool ends up either in it or on the free
// list, once.
func TestSelectNextCopiesRepeats(t *testing.T) {
	p := gen(t, 6, 10, 0.05, 0.15, 5)
	for _, fitness := range [][]float64{{9, 0.1, 0.1, 0.2, 0.1, 0.1}, {0, 0, 0, 0, 0, 0}} {
		ev := newEvaluator(p)
		rng := xrand.New(3)
		pool := make([]ga.Individual, len(fitness))
		for i, f := range fitness {
			pool[i] = ev.individual(bitset.New(p.Sites() * p.Objects()))
			pool[i].Bits.Set(i)
			pool[i].Cost, pool[i].Fitness = int64(i), f
		}
		const count = 4
		want := ga.StochasticRemainder(nil, pool, count, xrand.New(3))
		if len(want) == len(unique(want)) {
			t.Fatalf("fixture: fitness %v draws %v, no repeat", fitness, want)
		}
		next := ev.selectNext(nil, pool, count, rng)
		for i, j := range want {
			if !next[i].Bits.Equal(pool[j].Bits) || next[i].Cost != pool[j].Cost {
				t.Fatalf("fitness %v: member %d is not pool member %d", fitness, i, j)
			}
		}
		checkUnshared(t, ev, next, ev.individual(bitset.New(1)))
		if got := len(next) + len(ev.free); got != len(pool) {
			t.Fatalf("fitness %v: %d members and %d free buffers, the pool had %d", fitness, len(next), len(ev.free), len(pool))
		}
	}
}

// unique returns the distinct values of xs.
func unique(xs []int) map[int]bool {
	set := map[int]bool{}
	for _, x := range xs {
		set[x] = true
	}
	return set
}
