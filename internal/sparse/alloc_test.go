package sparse

import (
	"testing"

	"drp/internal/solver"
)

// The build, propose and merge paths allocate per run, not per object or
// per step. These counts hold on any host, unlike the timings they stand
// behind.

// TestNewModelAllocsIndependentOfN: building the caches and the candidate
// bitmasks of 8 000 objects allocates exactly as often as of 1 000.
func TestNewModelAllocsIndependentOfN(t *testing.T) {
	allocs := func(n int) float64 {
		mo := testModel(t, 64, n, 1)
		cfg := Config{Sizes: mo.size, Capacities: mo.cap, Primaries: mo.primary, Reads: mo.reads, Writes: mo.writes, Dist: mo.dist}
		return testing.AllocsPerRun(5, func() {
			if _, err := NewModel(cfg); err != nil {
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
	allocs := func(n int) float64 {
		mo := testModel(t, 64, n, 1)
		return testing.AllocsPerRun(3, func() {
			if _, err := Solve(mo, SolveParams{Shards: 1}, solver.Run{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(1000), allocs(8000); small != large {
		t.Fatalf("Solve allocates %v times at N=1000 but %v at N=8000", small, large)
	}
}

// TestMergeAllocsNothingPerStep: once the replica lists have grown to their
// final length, a merge allocates its Result and its step list, however
// many steps it applies.
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
	allocs := testing.AllocsPerRun(3, func() {
		applied = merge(mo, a, mo.DPrime(), objects, props, c).Applied
		// Strip back to primaries: the lists keep their capacity, so the
		// next merge's adds need no storage.
		for k, repl := range a.repl {
			for idx := len(repl) - 1; idx >= 0; idx-- {
				if repl[idx] != mo.primary[k] {
					if err := a.Remove(int(repl[idx]), k); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	})
	if applied < 1000 {
		t.Fatalf("merge applied only %d steps; the instance does not exercise it", applied)
	}
	if allocs > 2 {
		t.Fatalf("merge of %d steps allocates %v times, want ≤ 2 (Result and step list)", applied, allocs)
	}
}
