package agra

import (
	"context"
	"testing"

	"drp/internal/core"
	"drp/internal/solver"
	"drp/internal/workload"
)

func anytimeFixture(t *testing.T, seed uint64) (Input, int64) {
	t.Helper()
	_, newP, current, changed := adaptFixture(t, workload.ChangeSpec{Ch: 6, ObjectShare: 0.3, ReadShare: 0.5}, seed)
	cur, err := core.SchemeFromBits(newP, current.Bits())
	if err != nil {
		t.Fatal(err)
	}
	return Input{Problem: newP, Current: cur, Changed: changed}, cur.Cost()
}

// A cancelled adaptation must still return a valid scheme, skip the
// mini-GRA polish and report why it stopped.
func TestAdaptCancelledStillReturnsValidScheme(t *testing.T) {
	in, _ := anytimeFixture(t, 50)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := AdaptWith(in, microParams(3), miniParams(3), 5, solver.Run{Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Stopped != solver.StopCancelled {
		t.Fatalf("stopped %v, want cancelled", res.Stats.Stopped)
	}
	if err := res.Scheme.Validate(); err != nil {
		t.Fatalf("interrupted scheme invalid: %v", err)
	}
	// Every micro-GA saw the cancelled context at its first boundary.
	for _, or := range res.Objects {
		if or.Generations != 0 || or.Stopped != solver.StopCancelled {
			t.Fatalf("object %d ran %d generations, stopped %v", or.Object, or.Generations, or.Stopped)
		}
	}
	// The polish was skipped: no mini-GRA generations joined the total.
	if res.Stats.Iterations != 0 {
		t.Fatalf("%d iterations on a cancelled run", res.Stats.Iterations)
	}
}

// The budget is one pool across the whole fan-out: all micro-GAs charge the
// same meter, and the pipeline reports StopBudget once it is exhausted.
func TestAdaptBudgetSharedAcrossMicroGAs(t *testing.T) {
	in, _ := anytimeFixture(t, 51)
	res, err := AdaptWith(in, microParams(3), miniParams(3), 5, solver.Run{Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Stopped != solver.StopBudget {
		t.Fatalf("stopped %v, want budget", res.Stats.Stopped)
	}
	if err := res.Scheme.Validate(); err != nil {
		t.Fatalf("interrupted scheme invalid: %v", err)
	}
	// The single-evaluation budget is consumed during the first micro-GA's
	// seeding, so no micro-GA completes a generation.
	for _, or := range res.Objects {
		if or.Generations != 0 {
			t.Fatalf("object %d completed %d generations under an exhausted budget", or.Object, or.Generations)
		}
	}
	if res.Stats.Evaluations <= 1 {
		t.Fatal("soft budget should still charge the in-flight work")
	}
}

// A budget that runs out partway through the micro-GAs stops the same ones
// at the same boundaries at any GOMAXPROCS: budgeted runs are reproducible,
// not merely valid.
func TestAdaptBudgetedReproducibleAtAnyGOMAXPROCS(t *testing.T) {
	in, _ := anytimeFixture(t, 54)
	full, err := Adapt(in, microParams(13), miniParams(13), 5)
	if err != nil {
		t.Fatal(err)
	}
	microEvals := 0
	for _, or := range full.Objects {
		microEvals += or.Evaluations
	}
	budget := solver.Run{Budget: microEvals / 2}
	var ref *Result
	for _, procs := range []int{1, 2, 8, 8, 8} {
		setProcs(t, procs)
		res, err := AdaptWith(in, microParams(13), miniParams(13), 5, budget)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Stopped != solver.StopBudget {
			t.Fatalf("GOMAXPROCS %d: stopped %v, want budget", procs, res.Stats.Stopped)
		}
		if ref == nil {
			ref = res
			// The budget must trip inside the fan-out: some micro-GA ran
			// generations, and a later one got fewer than its full run.
			ran, cut := false, false
			for i, or := range res.Objects {
				ran = ran || or.Generations > 0
				cut = cut || or.Generations < full.Objects[i].Generations
			}
			if !ran || !cut {
				t.Fatalf("budget %d did not stop the fan-out midway", budget.Budget)
			}
			continue
		}
		if microDigest(res.Objects) != microDigest(ref.Objects) {
			t.Fatalf("GOMAXPROCS %d: micro-GA results differ from GOMAXPROCS 1", procs)
		}
		if !res.Scheme.Equal(ref.Scheme) || res.Cost != ref.Cost {
			t.Fatalf("GOMAXPROCS %d: scheme or cost %d differs from GOMAXPROCS 1 (%d)", procs, res.Cost, ref.Cost)
		}
		if res.Stats.Evaluations != ref.Stats.Evaluations || res.Stats.Iterations != ref.Stats.Iterations {
			t.Fatalf("GOMAXPROCS %d: stats %+v differ from GOMAXPROCS 1 (%+v)", procs, res.Stats, ref.Stats)
		}
	}
}

// With controls that never fire, AdaptWith is bit-identical to Adapt and
// the mini-GRA inherits the remaining budget without tripping it.
func TestAdaptWithUnfiredControlsMatchesAdapt(t *testing.T) {
	in, _ := anytimeFixture(t, 52)
	plain, err := Adapt(in, microParams(5), miniParams(5), 5)
	if err != nil {
		t.Fatal(err)
	}
	controlled, err := AdaptWith(in, microParams(5), miniParams(5), 5, solver.Run{Budget: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if controlled.Stats.Stopped != solver.StopCompleted {
		t.Fatalf("stopped %v", controlled.Stats.Stopped)
	}
	if !plain.Scheme.Equal(controlled.Scheme) || plain.Cost != controlled.Cost {
		t.Fatal("unfired controls changed the adaptation result")
	}
	if controlled.Stats.Evaluations == 0 || controlled.Stats.Iterations == 0 {
		t.Fatalf("accounting missing: %+v", controlled.Stats)
	}
}

// Elapsed must be additive across the two pipeline phases, since all three
// durations come from the one controller clock.
func TestAdaptElapsedAdditive(t *testing.T) {
	in, _ := anytimeFixture(t, 53)
	res, err := AdaptWith(in, microParams(7), miniParams(7), 5, solver.Run{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed != res.MicroElapsed+res.MiniElapsed {
		t.Fatalf("Elapsed %v != MicroElapsed %v + MiniElapsed %v", res.Elapsed, res.MicroElapsed, res.MiniElapsed)
	}
	if res.Elapsed != res.Stats.Elapsed {
		t.Fatal("Elapsed does not mirror Stats.Elapsed")
	}
}

// An interrupted adaptation must never be worse than blindly keeping every
// transcription candidate unexamined: it realises the best transcribed
// chromosome, which includes the current scheme as the elite seed.
func TestAdaptDeadlineDegradesGracefully(t *testing.T) {
	in, _ := anytimeFixture(t, 54)
	res, err := AdaptWith(in, microParams(9), miniParams(9), 5, solver.Run{Timeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Stopped != solver.StopDeadline {
		t.Fatalf("stopped %v, want deadline", res.Stats.Stopped)
	}
	if err := res.Scheme.Validate(); err != nil {
		t.Fatalf("degraded scheme invalid: %v", err)
	}
	if res.Cost != res.Scheme.Cost() {
		t.Fatal("reported cost mismatch on degraded path")
	}
}
