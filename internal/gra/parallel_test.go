package gra

import (
	"testing"

	"drp/internal/solver"
	"drp/internal/xrand"
)

// TestRunParallelBitIdentical is the tentpole guarantee: for the same seed,
// every worker count produces exactly the serial run — same elite bits,
// cost, fitness, per-generation history and final population.
func TestRunParallelBitIdentical(t *testing.T) {
	p := gen(t, 10, 14, 0.05, 0.12, 21)
	var ref *Result
	for _, par := range []int{1, 2, 8} {
		params := smallParams(31)
		params.Parallelism = par
		res, err := Run(p, params)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.Cost != ref.Cost || res.Fitness != ref.Fitness {
			t.Fatalf("par=%d: cost/fitness %d/%v diverged from serial %d/%v",
				par, res.Cost, res.Fitness, ref.Cost, ref.Fitness)
		}
		if !res.Scheme.Equal(ref.Scheme) {
			t.Fatalf("par=%d: elite scheme bits diverged from serial", par)
		}
		if res.Evaluations != ref.Evaluations {
			t.Fatalf("par=%d: %d evaluations, serial did %d", par, res.Evaluations, ref.Evaluations)
		}
		if len(res.History) != len(ref.History) {
			t.Fatalf("par=%d: history length %d vs %d", par, len(res.History), len(ref.History))
		}
		for g := range res.History {
			if res.History[g] != ref.History[g] {
				t.Fatalf("par=%d: generation %d stats %+v diverged from %+v",
					par, g, res.History[g], ref.History[g])
			}
		}
		for i := range res.Population {
			if !res.Population[i].Equal(ref.Population[i]) {
				t.Fatalf("par=%d: final population member %d diverged", par, i)
			}
		}
	}
}

// TestRunWithPopulationParallelBitIdentical covers the AGRA-facing entry
// point (mini-GRA, Current+GRA policies) at several worker counts.
func TestRunWithPopulationParallelBitIdentical(t *testing.T) {
	p := gen(t, 9, 12, 0.05, 0.15, 22)
	init := seedSRA(p, 6, xrand.New(5))
	var ref *Result
	for _, par := range []int{1, 2, 8} {
		params := smallParams(37)
		params.Parallelism = par
		res, err := ContinueWith(p, params, init, solver.Run{})
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.Cost != ref.Cost || res.Fitness != ref.Fitness || !res.Scheme.Equal(ref.Scheme) {
			t.Fatalf("par=%d diverged from serial", par)
		}
	}
}

// TestRunParallelHammer is the -race workhorse: a wide pool, aggressive
// variation rates and enough generations to push many batches through it.
func TestRunParallelHammer(t *testing.T) {
	p := gen(t, 10, 15, 0.05, 0.10, 24)
	params := smallParams(43)
	params.Parallelism = 8
	params.Generations = 25
	params.CrossoverRate = 1.0
	params.MutationRate = 0.05
	res, err := Run(p, params)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Scheme.Validate(); err != nil {
		t.Fatalf("hammered run produced invalid scheme: %v", err)
	}
}

func TestValidateRejectsNegativeParallelism(t *testing.T) {
	p := gen(t, 5, 5, 0.05, 0.15, 25)
	params := smallParams(1)
	params.Parallelism = -1
	if _, err := Run(p, params); err == nil {
		t.Fatal("negative parallelism accepted")
	}
}

// TestTrajectoryPinnedOnAdaptiveTestCase pins the search itself on the
// paper's adaptive test case (M=50, N=200, U=5%, C=15%, the benchmark's
// solve_dense instance): default parameters end at cost 16 064 740 after
// exactly 8 050 evaluations, at every worker count. The evaluator is free
// to change how it computes eq. 4 but not what — one wrong integer or one
// extra meter tick moves a selection and this number with it.
func TestTrajectoryPinnedOnAdaptiveTestCase(t *testing.T) {
	if testing.Short() {
		t.Skip("three full-size GRA runs")
	}
	p := gen(t, 50, 200, 0.05, 0.15, 1)
	for _, par := range []int{1, 2, 8} {
		params := DefaultParams()
		params.Parallelism = par
		res, err := Run(p, params)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if res.Cost != 16064740 || res.Evaluations != 8050 {
			t.Fatalf("par=%d: cost %d after %d evaluations, recorded 16064740 after 8050", par, res.Cost, res.Evaluations)
		}
	}
}
