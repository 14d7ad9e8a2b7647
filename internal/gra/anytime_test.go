package gra

import (
	"context"
	"testing"

	"drp/internal/solver"
)

// expectSame asserts two GRA results are bit-for-bit identical in everything
// but the stop reason: scheme, cost, fitness, history and final population.
func expectSame(t *testing.T, got, want *Result) {
	t.Helper()
	if !got.Scheme.Equal(want.Scheme) {
		t.Fatal("schemes differ")
	}
	if got.Cost != want.Cost || got.Fitness != want.Fitness {
		t.Fatalf("cost/fitness (%d, %v) != (%d, %v)", got.Cost, got.Fitness, want.Cost, want.Fitness)
	}
	if len(got.History) != len(want.History) {
		t.Fatalf("history length %d != %d", len(got.History), len(want.History))
	}
	for i := range got.History {
		if got.History[i] != want.History[i] {
			t.Fatalf("history[%d] %+v != %+v", i, got.History[i], want.History[i])
		}
	}
	if len(got.Population) != len(want.Population) {
		t.Fatalf("population size %d != %d", len(got.Population), len(want.Population))
	}
	for i := range got.Population {
		if !got.Population[i].Equal(want.Population[i]) {
			t.Fatalf("population[%d] differs", i)
		}
	}
	if got.Stats.Evaluations != want.Stats.Evaluations {
		t.Fatalf("evaluations %d != %d", got.Stats.Evaluations, want.Stats.Evaluations)
	}
	if got.Stats.Iterations != want.Stats.Iterations {
		t.Fatalf("iterations %d != %d", got.Stats.Iterations, want.Stats.Iterations)
	}
}

// TestCancelledAtGenEqualsShorterRun is the determinism contract: a run
// cancelled after generation g must return exactly what a Generations=g run
// returns, at every worker count. The context is cancelled from the observer
// at the gen-g boundary, so the next boundary's check sees it before any
// generation-g+1 randomness is drawn.
func TestCancelledAtGenEqualsShorterRun(t *testing.T) {
	p := gen(t, 10, 15, 0.05, 0.15, 21)
	const cutGen = 6
	for _, procs := range []int{1, 8} {
		setProcs(t, procs)
		params := smallParams(31)

		ctx, cancel := context.WithCancel(context.Background())
		run := solver.Run{
			Context: ctx,
			Observer: solver.ObserverFunc(func(pr solver.Progress) {
				if pr.Iteration == cutGen {
					cancel()
				}
			}),
		}
		cancelled, err := RunWith(p, params, run)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if cancelled.Stats.Stopped != solver.StopCancelled {
			t.Fatalf("GOMAXPROCS %d: stopped %v, want cancelled", procs, cancelled.Stats.Stopped)
		}
		if cancelled.Stats.Iterations != cutGen {
			t.Fatalf("GOMAXPROCS %d: stopped after %d generations, want %d", procs, cancelled.Stats.Iterations, cutGen)
		}

		short := params
		short.Generations = cutGen
		ref, err := Run(p, short)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Stats.Stopped != solver.StopCompleted {
			t.Fatalf("GOMAXPROCS %d: reference run stopped %v", procs, ref.Stats.Stopped)
		}
		expectSame(t, cancelled, ref)
	}
}

// A budget stop happens at a generation boundary too, so the truncated run
// must also match the equivalent shorter run exactly.
func TestBudgetStopsAtBoundaryBitIdentical(t *testing.T) {
	p := gen(t, 10, 15, 0.05, 0.15, 22)
	params := smallParams(33)
	// Enough for seeding plus a few generations, not the whole run.
	budgeted, err := RunWith(p, params, solver.Run{Budget: 4 * params.PopSize})
	if err != nil {
		t.Fatal(err)
	}
	if budgeted.Stats.Stopped != solver.StopBudget {
		t.Fatalf("stopped %v, want budget", budgeted.Stats.Stopped)
	}
	g := budgeted.Stats.Iterations
	if g <= 0 || g >= params.Generations {
		t.Fatalf("budget stopped after %d generations, want interior stop", g)
	}
	short := params
	short.Generations = g
	ref, err := Run(p, short)
	if err != nil {
		t.Fatal(err)
	}
	expectSame(t, budgeted, ref)
}

func TestExpiredDeadlineStopsBeforeFirstGeneration(t *testing.T) {
	p := gen(t, 8, 10, 0.05, 0.15, 23)
	params := smallParams(35)
	res, err := RunWith(p, params, solver.Run{Timeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Stopped != solver.StopDeadline {
		t.Fatalf("stopped %v, want deadline", res.Stats.Stopped)
	}
	if res.Stats.Iterations != 0 || len(res.History) != 1 {
		t.Fatalf("expired run completed %d generations (history %d)", res.Stats.Iterations, len(res.History))
	}
	// The seeded population's best is still a valid scheme.
	if err := res.Scheme.Validate(); err != nil {
		t.Fatalf("interrupted run returned invalid scheme: %v", err)
	}
	short := params
	short.Generations = 0
	ref, err := Run(p, short)
	if err != nil {
		t.Fatal(err)
	}
	expectSame(t, res, ref)
}

// Controls that never fire must leave the run bit-identical to no controls.
func TestUnfiredControlsAreFree(t *testing.T) {
	p := gen(t, 8, 12, 0.05, 0.15, 24)
	params := smallParams(37)
	plain, err := Run(p, params)
	if err != nil {
		t.Fatal(err)
	}
	controlled, err := RunWith(p, params, solver.Run{
		Context:  context.Background(),
		Budget:   1 << 30,
		Observer: solver.ObserverFunc(func(solver.Progress) {}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if controlled.Stats.Stopped != solver.StopCompleted {
		t.Fatalf("stopped %v", controlled.Stats.Stopped)
	}
	expectSame(t, controlled, plain)
}

func TestObserverSeesEveryGeneration(t *testing.T) {
	p := gen(t, 8, 10, 0.05, 0.15, 25)
	params := smallParams(39)
	var gens []int
	_, err := RunWith(p, params, solver.Run{Observer: solver.ObserverFunc(func(pr solver.Progress) {
		if pr.Algorithm != "gra" {
			t.Errorf("algorithm %q", pr.Algorithm)
		}
		gens = append(gens, pr.Iteration)
	})})
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != params.Generations+1 {
		t.Fatalf("%d observations, want %d", len(gens), params.Generations+1)
	}
	for i, g := range gens {
		if g != i {
			t.Fatalf("observation %d reports generation %d", i, g)
		}
	}
}
