// Package solver is the anytime runtime shared by every search algorithm in
// this repository (SRA, GRA, AGRA, hill climb, exhaustive optimal). It owns
// the three cross-cutting concerns the paper's adaptive setting (Section 5)
// needs but the open-loop algorithms lack:
//
//   - run controls — a Run options struct carrying a context.Context, a
//     wall-clock deadline and an evaluation budget, so a monitor site can say
//     "re-optimise, but give me the best scheme you have by the epoch
//     deadline";
//   - progress observation — an Observer hook invoked at iteration
//     boundaries with the run's convergence state; and
//   - uniform accounting — a Stats struct (evaluations, iterations, elapsed,
//     stop reason) attached to every result and populated from a single
//     controller clock and a single evaluation meter.
//
// The determinism contract: interruption is only ever *checked* at
// generation/iteration boundaries, and checking consumes no randomness. An
// uninterrupted run is therefore bit-identical to a run with no controls at
// every worker count, and a run cancelled after generation g returns exactly
// what a run configured for g generations returns (plus a different stop
// reason). Budgets are soft caps for the same reason: the iteration in
// flight when the budget trips always completes, and the run stops at the
// next boundary.
package solver

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// StopReason records why a run ended. The zero value is StopCompleted so
// legacy zero-valued Stats read as uninterrupted runs.
type StopReason int

// Stop reasons, in checking priority order (cancellation trumps deadline
// trumps budget).
const (
	// StopCompleted: the run reached its natural end (generation count,
	// local optimum, exhausted candidates, patience).
	StopCompleted StopReason = iota
	// StopCancelled: the run's context was cancelled.
	StopCancelled
	// StopDeadline: the wall-clock deadline (Run.Timeout or the context's
	// own deadline) passed.
	StopDeadline
	// StopBudget: the evaluation budget was consumed.
	StopBudget
)

func (r StopReason) String() string {
	switch r {
	case StopCompleted:
		return "completed"
	case StopCancelled:
		return "cancelled"
	case StopDeadline:
		return "deadline"
	case StopBudget:
		return "budget"
	default:
		return "StopReason(?)"
	}
}

// Progress is one observation, emitted at an iteration boundary. Fields an
// algorithm does not track (e.g. fitness for SRA's greedy site visits) are
// zero.
type Progress struct {
	// Algorithm names the emitting solver: "sra", "gra", "agra", "hill",
	// "optimal" or "sparse".
	Algorithm string
	// Iteration is the boundary just completed: the generation index for the
	// GAs, the site-visit count for SRA, the accepted-move count for hill
	// climbing.
	Iteration int
	// BestFitness/MeanFitness/BestCost describe the best solution so far and
	// the population, where the algorithm has one.
	BestFitness float64
	MeanFitness float64
	BestCost    int64
	// Evaluations is the number of cost-model evaluations consumed so far
	// (the run's central meter, shared across nested and parallel stages).
	Evaluations int
	// Elapsed is the wall-clock time since the run started.
	Elapsed time.Duration
}

// Observer receives Progress events. Implementations must be cheap — they
// run on the solver's coordinator goroutine — and, when a solver fans out
// (AGRA's micro-GAs), safe for concurrent use; wrap with Synchronized.
type Observer interface {
	Progress(Progress)
}

// ObserverFunc adapts a plain function to Observer.
type ObserverFunc func(Progress)

// Progress implements Observer.
func (f ObserverFunc) Progress(p Progress) { f(p) }

// Synchronized wraps an observer with a mutex so concurrent emitters (the
// AGRA fan-out) serialise their events. A nil observer stays nil, and an
// already-synchronized observer is returned as is — composed layers that
// each defensively synchronize (a CLI wrapping a bridge wrapping a sink)
// share one lock instead of stacking them.
func Synchronized(o Observer) Observer {
	if o == nil {
		return nil
	}
	if l, ok := o.(*lockedObserver); ok {
		return l
	}
	return &lockedObserver{o: o}
}

type lockedObserver struct {
	mu sync.Mutex
	o  Observer
}

func (l *lockedObserver) Progress(p Progress) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.o.Progress(p)
}

// Run carries the anytime controls accepted by every solver entry point.
// The zero value means "run open-loop to completion", which is bit-identical
// to the pre-runtime behaviour.
type Run struct {
	// Context cancels the run when done; nil means context.Background().
	// A context deadline is honoured and reported as StopDeadline.
	Context context.Context
	// Timeout is the wall-clock cap, measured from the solver entry point
	// (it covers seeding and setup, not just the iteration loop). 0 means
	// no deadline; negative means already expired (the run stops at the
	// first boundary with its best-so-far result).
	Timeout time.Duration
	// Budget caps the number of cost-model evaluations, counted centrally
	// on the run's meter wherever core.Evaluator / core.EvalPool is invoked
	// (for SRA, which never builds full cost evaluations, the unit is
	// benefit scans instead). <= 0 means unlimited. The budget is a soft
	// cap: the iteration in flight completes, then the run stops.
	Budget int
	// Observer receives per-iteration progress events; nil disables them.
	Observer Observer
}

// Stats is the uniform accounting attached to every solver result.
type Stats struct {
	// Evaluations is the run's central meter: cost-model evaluations for
	// the GAs and baselines, benefit scans for SRA. Nested stages (AGRA's
	// micro-GAs and mini-GRA) charge the same meter.
	Evaluations int
	// Iterations counts completed boundaries: generations for the GAs
	// (summed over micro-GAs and the mini polish for AGRA), site visits for
	// SRA, accepted moves for hill climbing, enumerated leaves for the
	// exhaustive optimal.
	Iterations int
	// Elapsed is the wall-clock duration of the whole entry point, from the
	// controller's single clock (for GRA it includes SRA seeding; for AGRA
	// it equals MicroElapsed + MiniElapsed exactly).
	Elapsed time.Duration
	// Stopped is why the run ended.
	Stopped StopReason
}

// Controller is the per-run runtime handed through a solver: it owns the
// clock, the evaluation meter, the stop checks and observer dispatch. Create
// one per entry point with Start. Check/Charge/Meter/Elapsed/Observe are
// safe for concurrent use by fan-out workers; Finish belongs to the
// coordinator.
type Controller struct {
	ctx         context.Context
	deadline    time.Time
	hasDeadline bool
	budget      int64
	observer    Observer
	alg         string
	start       time.Time
	meter       atomic.Int64
}

// Start begins a run under the given controls. alg labels observer events.
func Start(alg string, run Run) *Controller {
	c := &Controller{
		ctx:      run.Context,
		observer: run.Observer,
		alg:      alg,
		start:    time.Now(),
	}
	if c.ctx == nil {
		c.ctx = context.Background()
	}
	if run.Timeout != 0 {
		c.deadline = c.start.Add(run.Timeout)
		c.hasDeadline = true
	}
	if run.Budget > 0 {
		c.budget = int64(run.Budget)
	}
	return c
}

// Meter exposes the run's central evaluation counter for attachment to
// core.Evaluator / core.EvalPool via their SetMeter hooks.
func (c *Controller) Meter() *atomic.Int64 { return &c.meter }

// Charge adds n evaluations to the meter, for work units that do not flow
// through a metered evaluator (SRA's benefit scans, hill-climb deltas).
func (c *Controller) Charge(n int) { c.meter.Add(int64(n)) }

// evaluations returns the meter's current value.
func (c *Controller) evaluations() int { return int(c.meter.Load()) }

// Elapsed returns the wall-clock time since Start.
func (c *Controller) Elapsed() time.Duration { return time.Since(c.start) }

// Check reports whether the run must stop now and why. Solvers call it only
// at iteration boundaries; it consumes no randomness and mutates nothing, so
// the uninterrupted path is bit-identical to a run without controls.
// Priority: cancellation, then deadline, then budget.
func (c *Controller) Check() (StopReason, bool) {
	if err := c.ctx.Err(); err != nil {
		if err == context.DeadlineExceeded {
			return StopDeadline, true
		}
		return StopCancelled, true
	}
	if c.hasDeadline && !time.Now().Before(c.deadline) {
		return StopDeadline, true
	}
	if c.budget > 0 && c.meter.Load() >= c.budget {
		return StopBudget, true
	}
	return StopCompleted, false
}

// Observe emits one progress event if an observer is attached.
func (c *Controller) Observe(iteration int, bestFitness, meanFitness float64, bestCost int64) {
	if c.observer == nil {
		return
	}
	c.observer.Progress(Progress{
		Algorithm:   c.alg,
		Iteration:   iteration,
		BestFitness: bestFitness,
		MeanFitness: meanFitness,
		BestCost:    bestCost,
		Evaluations: c.evaluations(),
		Elapsed:     c.Elapsed(),
	})
}

// Sub derives controls for a nested solver stage (AGRA's mini-GRA polish):
// same context and observer, the remaining wall-clock and the remaining
// budget. Call it only after a passing Check; if the deadline or budget
// raced to exhaustion in between, the child stops at its first boundary.
func (c *Controller) Sub() Run {
	run := Run{Context: c.ctx, Observer: c.observer}
	if c.hasDeadline {
		run.Timeout = time.Until(c.deadline)
		if run.Timeout <= 0 {
			run.Timeout = -1 // already expired: child stops immediately
		}
	}
	if c.budget > 0 {
		remaining := c.budget - c.meter.Load()
		if remaining < 1 {
			remaining = 1 // exhausted: child stops at its first boundary
		}
		run.Budget = int(remaining)
	}
	return run
}

// Absorb folds a nested stage's accounting into this run: its evaluations
// join the meter (unless the stage already charged it) and its stop reason
// is returned for the caller to propagate.
func (c *Controller) Absorb(st Stats) StopReason {
	c.meter.Add(int64(st.Evaluations))
	return st.Stopped
}

// Finish closes the run and returns its Stats.
func (c *Controller) Finish(iterations int, stopped StopReason) Stats {
	return Stats{
		Evaluations: c.evaluations(),
		Iterations:  iterations,
		Elapsed:     c.Elapsed(),
		Stopped:     stopped,
	}
}
