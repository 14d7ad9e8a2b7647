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
	mallocs, _ := minAllocs(runs, fn)
	return mallocs
}

// minAllocs is minMallocs that also returns the fewest bytes one call
// allocates, measured the same way.
func minAllocs(runs int, fn func()) (mallocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	mallocs, bytes = math.MaxUint64, math.MaxUint64
	var before, after runtime.MemStats
	for range runs {
		runtime.GC()
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		mallocs = min(mallocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return mallocs, bytes
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

// builtBytes returns the bytes of the arrays a model built for itself: its
// access patterns and derived caches and, unless they are shared with the
// model it was perturbed from, its sizes, primaries, capacities and
// distances.
func builtBytes(mo *Model, shared bool) uint64 {
	bytes := 4*(len(mo.reads.Off)+len(mo.writes.Off)+len(mo.reads.Site)+len(mo.writes.Site)) +
		8*(len(mo.reads.Cnt)+len(mo.writes.Cnt)+len(mo.totalReads)+len(mo.totalWrites)+len(mo.vPrime)+len(mo.primaryLoad)+len(mo.slack))
	if !shared {
		bytes += 8*(len(mo.size)+len(mo.cap)+mo.m*mo.m) + 4*len(mo.primary)
	}
	return uint64(bytes)
}

// TestGenerateAllocsLedger: generating an instance and perturbing 5 % of
// it allocate as often at N = 8 000 as at N = 1 000 — the pattern arrays
// are reserved once, not grown by doubling — and at N = 8 000 each
// allocates at most 1.1× the bytes of the arrays its model holds.
func TestGenerateAllocsLedger(t *testing.T) {
	type ledger struct{ genMallocs, genBytes, genModel, perMallocs, perBytes, perModel uint64 }
	measure := func(n int) ledger {
		spec := NewWorkloadSpec(64, n)
		var l ledger
		var night, day *Model
		l.genMallocs, l.genBytes = minAllocs(3, func() {
			var err error
			if night, err = GenerateWorkload(spec, 1); err != nil {
				t.Fatal(err)
			}
		})
		l.perMallocs, l.perBytes = minAllocs(3, func() {
			var err error
			if day, _, err = PerturbWorkload(night, spec, 0.05, 2); err != nil {
				t.Fatal(err)
			}
		})
		l.genModel, l.perModel = builtBytes(night, false), builtBytes(day, true)
		return l
	}
	small, large := measure(1000), measure(8000)
	if small.genMallocs != large.genMallocs {
		t.Errorf("GenerateWorkload allocates %d times at N=1000 but %d at N=8000", small.genMallocs, large.genMallocs)
	}
	if small.perMallocs != large.perMallocs {
		t.Errorf("PerturbWorkload allocates %d times at N=1000 but %d at N=8000", small.perMallocs, large.perMallocs)
	}
	if 10*large.genBytes > 11*large.genModel {
		t.Errorf("GenerateWorkload allocates %d bytes for a model of %d", large.genBytes, large.genModel)
	}
	if 10*large.perBytes > 11*large.perModel {
		t.Errorf("PerturbWorkload allocates %d bytes for a model of %d", large.perBytes, large.perModel)
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
			if _, err := Solve(mo, SolveParams{}, solver.Run{}); err != nil {
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
			if _, err := Adapt(mo, a, changed, SolveParams{}, solver.Run{}); err != nil {
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
	propose(mo, objects, props, c)
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
