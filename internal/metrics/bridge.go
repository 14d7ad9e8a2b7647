package metrics

import (
	"sync"
	"time"

	"drp/internal/solver"
)

// BridgeObserver adapts a metrics registry (and optionally an event log)
// into a solver.Observer: every per-iteration Progress event increments the
// per-algorithm iteration counter, feeds the best-cost convergence
// histogram and updates the live gauges, then forwards to next (which may
// be nil). With neither a registry nor an event log there is nothing to
// bridge and next is returned as is. The bridge is safe for concurrent emitters (AGRA's micro-GA
// fan-out) without external synchronisation — instruments are atomic and
// the event log locks internally — so it does NOT need solver.Synchronized
// unless next does.
//
// Determinism: the counter and histogram updates commute and observe only
// deterministic quantities (iteration boundaries, best NTC), so their
// snapshots are identical at any worker count. The gauges
// (drp_solver_evaluations, drp_solver_best_fitness, drp_solver_best_cost)
// are last-writer-wins live views and are excluded by
// Snapshot.Deterministic.
func BridgeObserver(reg *Registry, events *EventLog, next solver.Observer) solver.Observer {
	if reg == nil && events == nil {
		return next
	}
	return &bridge{reg: reg, events: events, next: next, perAlg: make(map[string]*algInstruments)}
}

type bridge struct {
	reg    *Registry
	events *EventLog
	next   solver.Observer

	mu     sync.Mutex
	perAlg map[string]*algInstruments
}

type algInstruments struct {
	iterations  *Counter
	bestCostH   *Histogram
	bestCost    *gauge
	bestFitness *gauge
	evaluations *gauge
}

func (b *bridge) instruments(alg string) *algInstruments {
	b.mu.Lock()
	defer b.mu.Unlock()
	ins, ok := b.perAlg[alg]
	if !ok {
		l := Labels{"algorithm": alg}
		ins = &algInstruments{
			iterations:  b.reg.Counter("drp_solver_iterations_total", "Completed solver iteration boundaries (generations, site visits, moves).", l),
			bestCostH:   b.reg.Histogram("drp_solver_best_ntc", "Best-so-far scheme NTC observed at each iteration boundary (convergence trajectory).", costBuckets(), l),
			bestCost:    b.reg.gauge("drp_solver_best_cost", "Most recent best-so-far scheme NTC.", l),
			bestFitness: b.reg.gauge("drp_solver_best_fitness", "Most recent best fitness.", l),
			evaluations: b.reg.gauge("drp_solver_evaluations", "Evaluations consumed so far by the most recently observed run.", l),
		}
		b.perAlg[alg] = ins
	}
	return ins
}

// Progress implements solver.Observer.
func (b *bridge) Progress(p solver.Progress) {
	if b.reg != nil {
		ins := b.instruments(p.Algorithm)
		ins.iterations.Inc()
		if p.BestCost > 0 {
			ins.bestCostH.Observe(float64(p.BestCost))
			ins.bestCost.set(float64(p.BestCost))
		}
		if p.BestFitness != 0 {
			ins.bestFitness.set(p.BestFitness)
		}
		ins.evaluations.set(float64(p.Evaluations))
	}
	if b.events != nil {
		b.events.Emit("solver.progress", map[string]any{
			"algorithm":    p.Algorithm,
			"iteration":    p.Iteration,
			"best_fitness": p.BestFitness,
			"mean_fitness": p.MeanFitness,
			"best_ntc":     p.BestCost,
			"evaluations":  p.Evaluations,
			"elapsed_ms":   float64(p.Elapsed) / float64(time.Millisecond),
		})
	}
	if b.next != nil {
		b.next.Progress(p)
	}
}

// runsCounter, evalsCounter and stopsCounter get-or-create the finished-run
// accounting instruments; RecordStats and RegisterSolverFamilies share them
// so names and help strings cannot drift apart.
func runsCounter(reg *Registry, alg string) *Counter {
	return reg.Counter("drp_solver_runs_total", "Completed solver runs.", Labels{"algorithm": alg})
}

func evalsCounter(reg *Registry, alg string) *Counter {
	return reg.Counter("drp_solver_evaluations_total", "Cost-model evaluations consumed by finished runs.", Labels{"algorithm": alg})
}

func stopsCounter(reg *Registry, alg, reason string) *Counter {
	return reg.Counter("drp_solver_stops_total", "Finished runs by stop reason.", Labels{"algorithm": alg, "reason": reason})
}

// RegisterSolverFamilies pre-creates the drp_solver_* counter and histogram
// families for the given algorithm names, so an exposition endpoint shows
// the full surface (at zero) before — or without — any run completing.
func RegisterSolverFamilies(reg *Registry, algorithms ...string) {
	if reg == nil {
		return
	}
	b := &bridge{reg: reg, perAlg: make(map[string]*algInstruments)}
	for _, alg := range algorithms {
		b.instruments(alg)
		runsCounter(reg, alg)
		evalsCounter(reg, alg)
		stopsCounter(reg, alg, solver.StopCompleted.String())
	}
}

// RecordStats folds a finished run's solver.Stats into the registry: run
// and stop-reason counters, the evaluation total and the (wall-clock, hence
// non-deterministic) elapsed and throughput gauges. The counters record
// deterministic quantities, so they join the determinism contract.
func RecordStats(reg *Registry, alg string, st solver.Stats, events *EventLog) {
	if reg != nil {
		l := Labels{"algorithm": alg}
		runsCounter(reg, alg).Inc()
		evalsCounter(reg, alg).Add(int64(st.Evaluations))
		stopsCounter(reg, alg, st.Stopped.String()).Inc()
		reg.gauge("drp_solver_elapsed_seconds", "Wall-clock duration of the most recent run.", l).set(st.Elapsed.Seconds())
		if st.Elapsed > 0 {
			reg.gauge("drp_solver_evals_per_second", "Evaluation throughput of the most recent run.", l).
				set(float64(st.Evaluations) / st.Elapsed.Seconds())
		}
	}
	if events != nil {
		events.Emit("solver.finished", map[string]any{
			"algorithm":   alg,
			"evaluations": st.Evaluations,
			"iterations":  st.Iterations,
			"elapsed_ms":  float64(st.Elapsed) / float64(time.Millisecond),
			"stopped":     st.Stopped.String(),
		})
	}
}
