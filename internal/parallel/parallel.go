// Package parallel provides the deterministic fan-out primitive behind the
// solvers' worker pools.
//
// The contract that keeps parallel runs bit-identical to serial ones is
// split between this package and its callers: tasks are identified by index
// and must write their results into index-addressed slots, so the reduction
// order is the input order regardless of completion order; and all
// randomness stays on the coordinator goroutine — workers only compute.
// Under that contract any worker count, including the inline single-worker
// path, yields exactly the same results.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker count: 0 (or any non-positive value) means
// GOMAXPROCS, which every solver passes; anything else is used as-is.
func Workers(parallelism int) int {
	if parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return parallelism
}

// For runs fn(i) for every i in [0, n) across at most workers goroutines.
// With workers <= 1 (or n <= 1) everything runs inline on the caller's
// goroutine and no goroutines are spawned. fn must be safe for concurrent
// invocation and must communicate only through index-addressed slots.
func For(n, workers int, fn func(i int)) {
	ForWorker(n, workers, func(_, i int) { fn(i) })
}

// ForWorker is For with a worker identity: fn(w, i) runs task i on worker
// w in [0, workers). A worker identity is held by exactly one goroutine at
// a time, so callers can hand each worker private scratch state (e.g. a
// core.Evaluator). Tasks are handed out by an atomic counter, which keeps
// the workers busy even when task costs are skewed. The counter hands out
// one index at a time, so callers batch sub-microsecond tasks into chunks,
// as sparse.Adapt does for its start cost.
func ForWorker(n, workers int, fn func(worker, task int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}
