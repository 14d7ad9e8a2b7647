package metrics

import (
	"strings"
	"testing"
	"time"

	"drp/internal/solver"
)

func TestBridgeObserverRecordsProgress(t *testing.T) {
	r := NewRegistry()
	var b strings.Builder
	events := NewEventLog(&b)
	var forwarded []solver.Progress
	next := solver.ObserverFunc(func(p solver.Progress) { forwarded = append(forwarded, p) })

	obs := BridgeObserver(r, events, next)
	for i := 1; i <= 3; i++ {
		obs.Progress(solver.Progress{
			Algorithm: "gra", Iteration: i,
			BestFitness: 1.0 / float64(i), BestCost: int64(1000 * i),
			Evaluations: 50 * i, Elapsed: time.Millisecond,
		})
	}

	if got := r.Counter("drp_solver_iterations_total", "", Labels{"algorithm": "gra"}).Value(); got != 3 {
		t.Fatalf("iterations counter = %d, want 3", got)
	}
	if got := r.Histogram("drp_solver_best_ntc", "", nil, Labels{"algorithm": "gra"}).Count(); got != 3 {
		t.Fatalf("best-ntc histogram count = %d, want 3", got)
	}
	if got := r.gauge("drp_solver_best_cost", "", Labels{"algorithm": "gra"}).value(); got != 3000 {
		t.Fatalf("best-cost gauge = %v, want 3000", got)
	}
	if len(forwarded) != 3 {
		t.Fatalf("forwarded %d events to next, want 3", len(forwarded))
	}
	if got := strings.Count(b.String(), `"event":"solver.progress"`); got != 3 {
		t.Fatalf("event log has %d progress lines, want 3:\n%s", got, b.String())
	}
}

func TestBridgeObserverNilRegistryStillForwards(t *testing.T) {
	calls := 0
	obs := BridgeObserver(nil, nil, solver.ObserverFunc(func(solver.Progress) { calls++ }))
	obs.Progress(solver.Progress{Algorithm: "sra", Iteration: 1})
	if calls != 1 {
		t.Fatalf("next called %d times, want 1", calls)
	}
}

func TestRecordStats(t *testing.T) {
	r := NewRegistry()
	var b strings.Builder
	events := NewEventLog(&b)
	st := solver.Stats{Evaluations: 1234, Iterations: 7, Elapsed: 10 * time.Millisecond, Stopped: solver.StopCompleted}
	RecordStats(r, "gra", st, events)
	RecordStats(r, "gra", st, events)

	if got := r.Counter("drp_solver_runs_total", "", Labels{"algorithm": "gra"}).Value(); got != 2 {
		t.Fatalf("runs counter = %d, want 2", got)
	}
	if got := r.Counter("drp_solver_evaluations_total", "", Labels{"algorithm": "gra"}).Value(); got != 2468 {
		t.Fatalf("evaluations counter = %d, want 2468", got)
	}
	if got := r.Counter("drp_solver_stops_total", "", Labels{"algorithm": "gra", "reason": solver.StopCompleted.String()}).Value(); got != 2 {
		t.Fatalf("stops counter = %d, want 2", got)
	}
	if got := strings.Count(b.String(), `"event":"solver.finished"`); got != 2 {
		t.Fatalf("event log has %d finished lines, want 2", got)
	}
}

func TestRegisterSolverFamilies(t *testing.T) {
	r := NewRegistry()
	RegisterSolverFamilies(r, "gra", "agra")
	var b strings.Builder
	if err := r.writePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, family := range []string{
		"drp_solver_iterations_total", "drp_solver_best_ntc",
		"drp_solver_runs_total", "drp_solver_evaluations_total", "drp_solver_stops_total",
	} {
		if !strings.Contains(out, family) {
			t.Errorf("preregistered exposition missing %s", family)
		}
	}
	if !strings.Contains(out, `drp_solver_runs_total{algorithm="agra"} 0`) {
		t.Errorf("agra runs counter not exposed at zero:\n%s", out)
	}
}
