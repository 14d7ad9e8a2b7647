package sparse

import (
	"math"
	"runtime"
	"testing"

	"drp/internal/solver"
)

// The build, propose and merge paths allocate per run, not per object or
// per step. These counts hold on any host, unlike the timings they stand
// behind.

// minMallocs returns the fewest heap allocations one call of fn makes, over
// runs calls after one warm-up call, each call started right after a
// collection with GOMAXPROCS pinned to 1. A collection that starts mid-call
// can add allocations of the runtime's own to that call (the first
// background cycle spawns the mark worker; the scavenger grows its timer
// heap); such foreign allocations only ever add, so the minimum is fn's own
// count.
func minMallocs(runs int, fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	fewest := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range runs {
		runtime.GC()
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	return fewest
}

// TestNewModelAllocsIndependentOfN: building the caches and the candidate
// bitmasks of 8 000 objects allocates exactly as often as of 1 000.
func TestNewModelAllocsIndependentOfN(t *testing.T) {
	allocs := func(n int) uint64 {
		mo := testModel(t, 64, n, 1)
		cfg := config{Sizes: mo.size, Capacities: mo.cap, Primaries: mo.primary, Reads: mo.reads, Writes: mo.writes, Dist: mo.dist}
		return minMallocs(5, func() {
			if _, err := newModel(cfg); err != nil {
				t.Fatalf("N=%d: %v", n, err)
			}
		})
	}
	if small, large := allocs(1000), allocs(8000); small != large {
		t.Fatalf("NewModel allocates %v times at N=1000 but %v at N=8000", small, large)
	}
}

// TestSolveAllocsPerObject: Solve allocates per run, not per object —
// scratch is sized by M, proposals are fixed slots, the replica lists are
// carved with room from one slab and the merge sorts one step list — so
// 8 000 objects cost exactly as many allocations as 1 000.
func TestSolveAllocsPerObject(t *testing.T) {
	allocs := func(n int) uint64 {
		mo := testModel(t, 64, n, 1)
		return minMallocs(3, func() {
			if _, err := Solve(mo, SolveParams{Shards: 1}, solver.Run{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(1000), allocs(8000); small != large {
		t.Fatalf("Solve allocates %v times at N=1000 but %v at N=8000", small, large)
	}
}

// TestAdaptAllocsIndependentOfN: with the same changed set, Adapt allocates
// as often at N = 8 000 as at N = 1 000 — the start cost is priced in
// fixed chunks, not per object. Each call re-adapts the same assignment,
// so after the warm-up the changed objects' lists already have room.
func TestAdaptAllocsIndependentOfN(t *testing.T) {
	changed := make([]int, 0, 100)
	for k := 0; k < 1000; k += 10 {
		changed = append(changed, k)
	}
	allocs := func(n int) uint64 {
		mo := testModel(t, 64, n, 1)
		a := NewAssignment(mo)
		return minMallocs(3, func() {
			if _, err := Adapt(mo, a, changed, SolveParams{Shards: 1}, solver.Run{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(1000), allocs(8000); small != large {
		t.Fatalf("Adapt allocates %v times at N=1000 but %v at N=8000", small, large)
	}
}

// TestMergeAllocsNothingPerStep: once the replica lists have grown to their
// final length, building the ledger and merging it allocate a fixed number
// of times however many steps they apply — the step list, its radix
// scratch, the per-object dead flags and the Result.
func TestMergeAllocsNothingPerStep(t *testing.T) {
	mo := testModel(t, 64, 3000, 1)
	objects := make([]int, mo.Objects())
	for k := range objects {
		objects[k] = k
	}
	props := make([]proposal, len(objects))
	c := solver.Start("sparse", solver.Run{})
	propose(mo, objects, props, SolveParams{Shards: 1}, c)
	a := NewAssignment(mo)
	applied := 0
	allocs := minMallocs(3, func() {
		applied = merge(mo, a, mo.DPrime(), objects, ledger(mo, objects, props), c).Applied
		// Strip back to primaries: the lists keep their capacity, so the
		// next merge's adds need no storage.
		for k, repl := range a.repl {
			for idx := len(repl) - 1; idx >= 0; idx-- {
				if repl[idx] != mo.primary[k] {
					if err := a.remove(int(repl[idx]), k); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	})
	if applied < 1000 {
		t.Fatalf("merge applied only %d steps; the instance does not exercise it", applied)
	}
	if allocs > 4 {
		t.Fatalf("ledger and merge of %d steps allocate %v times, want ≤ 4 (step list, radix scratch, dead flags, Result)", applied, allocs)
	}
}
