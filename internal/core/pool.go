package core

import (
	"sync/atomic"

	"drp/internal/bitset"
	"drp/internal/parallel"
)

// EvalPool fans cost evaluations out across a fixed set of per-goroutine
// Evaluators. An Evaluator is not safe for concurrent use (it reuses
// per-object scratch buffers), so the pool owns one per worker and hands it
// to whichever task that worker picks up. Results are always written by
// task index, so the reduction order — and therefore every downstream
// decision — is identical at any worker count.
//
// The pool itself must not be shared between concurrently running batches;
// one pool per solver run is the intended shape.
type EvalPool struct {
	evs []*Evaluator // one per worker
}

// NewEvalPool returns a pool for p. parallelism follows the solvers'
// convention: 0 means GOMAXPROCS, 1 is fully serial (evaluations run inline
// on the caller's goroutine), anything larger is an explicit worker count.
func NewEvalPool(p *Problem, parallelism int) *EvalPool {
	w := parallel.Workers(parallelism)
	evs := make([]*Evaluator, w)
	for i := range evs {
		evs[i] = NewEvaluator(p)
	}
	return &EvalPool{evs: evs}
}

// SetMeter attaches one shared evaluation counter to every worker's
// evaluator (see Evaluator.SetMeter); nil detaches.
func (pl *EvalPool) SetMeter(meter *atomic.Int64) {
	for _, ev := range pl.evs {
		ev.SetMeter(meter)
	}
}

// Each runs fn(ev, i) for every i in [0, n) across the pool, handing each
// invocation a worker-private Evaluator. fn must write its result into an
// index-addressed slot and must not touch shared mutable state.
func (pl *EvalPool) Each(n int, fn func(ev *Evaluator, i int)) {
	parallel.ForWorker(n, len(pl.evs), func(w, i int) { fn(pl.evs[w], i) })
}

// Costs evaluates each placement matrix and returns their NTCs in input
// order.
func (pl *EvalPool) Costs(xs []*bitset.Set) []int64 {
	out := make([]int64, len(xs))
	pl.Each(len(xs), func(ev *Evaluator, i int) { out[i] = ev.Cost(xs[i]) })
	return out
}
