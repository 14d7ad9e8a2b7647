package gra

import (
	"sync/atomic"
	"testing"

	"drp/internal/bitset"
	"drp/internal/core"
	"drp/internal/ga"
	"drp/internal/solver"
	"drp/internal/xrand"
)

// checkCarried asserts that every individual's carried per-object costs are
// the kernel's V_k of its chromosome and sum to its cost.
func checkCarried(t *testing.T, p *core.Problem, what string, pop []ga.Individual) {
	t.Helper()
	for i, ind := range pop {
		s, err := core.SchemeFromBits(p, ind.Bits)
		if err != nil {
			t.Fatalf("%s %d: %v", what, i, err)
		}
		if len(ind.Objects) != p.Objects() {
			t.Fatalf("%s %d carries %d per-object costs, want %d", what, i, len(ind.Objects), p.Objects())
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
	}
}

// TestCarriedObjectCostsMatchKernel runs GRA's generational loop with
// aggressive variation (every pair crossed, 5% mutation) and checks, after
// every generation, that every parent, crossover child and mutant carries
// exactly the V_k the kernel prices for its chromosome.
func TestCarriedObjectCostsMatchKernel(t *testing.T) {
	p := gen(t, 10, 15, 0.05, 0.10, 24)
	params := smallParams(43)
	params.Parallelism = 2
	params.Generations = 25
	params.CrossoverRate = 1.0
	params.MutationRate = 0.05
	ev := newEvaluator(p, params.Parallelism)
	rng := xrand.New(params.Seed)
	init := seedSRA(p, params.PopSize, rng)
	seeds := make([]child, len(init))
	for i, bits := range init {
		seeds[i] = child{bits: bits}
	}
	pop := ev.evaluateAll(seeds)
	checkCarried(t, p, "seed", pop)
	elite := pop[ga.Best(pop)].Clone()
	for gen := 1; gen <= params.Generations; gen++ {
		crossPop := ev.crossoverSubpop(pop, params, rng)
		mutPop := ev.mutationSubpop(pop, params, rng)
		checkCarried(t, p, "crossover child", crossPop)
		checkCarried(t, p, "mutant", mutPop)
		pool := append(append(append([]ga.Individual{}, pop...), crossPop...), mutPop...)
		if b := ga.Best(pool); pool[b].Fitness > elite.Fitness {
			elite = pool[b].Clone()
		}
		pop = selectNext(pool, params.PopSize, rng)
		if gen%params.EliteEvery == 0 {
			pop[ga.Worst(pop)] = elite.Clone()
		}
		checkCarried(t, p, "individual", pop)
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

	ev := newEvaluator(p, 1)
	var meter atomic.Int64
	ev.pool.SetMeter(&meter)
	got := ev.evaluateAll([]child{{bits: full.Clone()}})[0]
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
	ev := newEvaluator(p, params.Parallelism)
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
