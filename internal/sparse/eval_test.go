package sparse

import (
	"fmt"
	"slices"
	"testing"

	"drp/internal/core"
	"drp/internal/workload"
	"drp/internal/xrand"
)

// TestEvalMatchesDense walks random mutations and holds the sparse
// evaluator's full cost bit-identical to the dense one at every step.
func TestEvalMatchesDense(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		mo := testModel(t, 12, 30, seed)
		p := denseFromModel(t, mo)
		a := NewAssignment(mo)
		s := core.NewScheme(p)
		ev := NewEvaluator(mo)
		dev := core.NewEvaluator(p)
		rng := xrand.New(seed * 13)
		randomWalk(t, mo, s, a, rng, 60, func(step int) {
			sparseCost := ev.Cost(a)
			denseCost := dev.Cost(s.Bits())
			if sparseCost != denseCost {
				t.Fatalf("seed %d step %d: sparse cost %d, dense %d", seed, step, sparseCost, denseCost)
			}
			k := rng.Intn(mo.Objects())
			repl := a.Replicators(k)
			if got, want := ev.ObjectCost(k, repl), s.ObjectCost(k); got != want {
				t.Fatalf("seed %d step %d: V_%d sparse %d, dense %d", seed, step, k, got, want)
			}
		})
	}
}

// TestDeltaMatchesDense holds the sparse delta evaluator's predictions and
// applied costs equal to the dense delta evaluator along a mutation walk.
func TestDeltaMatchesDense(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		mo := testModel(t, 10, 20, seed)
		p := denseFromModel(t, mo)
		a := NewAssignment(mo)
		s := core.NewScheme(p)
		sd := NewDeltaEvaluator(a)
		dd := core.NewDeltaEvaluator(s)
		if sd.Cost() != dd.Cost() {
			t.Fatalf("seed %d: initial cost sparse %d, dense %d", seed, sd.Cost(), dd.Cost())
		}
		rng := xrand.New(seed * 31)
		for step := 0; step < 80; step++ {
			k := rng.Intn(mo.Objects())
			if rng.Bool(0.6) {
				cand := mo.Candidates(k)
				site := int(cand[rng.Intn(len(cand))])
				gotD, gotOK := sd.AddDelta(site, k)
				wantD, wantOK := dd.AddDelta(site, k)
				if gotD != wantD || gotOK != wantOK {
					t.Fatalf("seed %d step %d: AddDelta(%d,%d) sparse (%d,%v), dense (%d,%v)",
						seed, step, site, k, gotD, gotOK, wantD, wantOK)
				}
				if gotOK {
					if err := sd.Add(site, k); err != nil {
						t.Fatalf("seed %d step %d: sparse add: %v", seed, step, err)
					}
					if err := dd.Add(site, k); err != nil {
						t.Fatalf("seed %d step %d: dense add: %v", seed, step, err)
					}
				}
			} else {
				repl := a.Replicators(k)
				site := int(repl[rng.Intn(len(repl))])
				gotD, gotOK := sd.RemoveDelta(site, k)
				wantD, wantOK := dd.RemoveDelta(site, k)
				if gotD != wantD || gotOK != wantOK {
					t.Fatalf("seed %d step %d: RemoveDelta(%d,%d) sparse (%d,%v), dense (%d,%v)",
						seed, step, site, k, gotD, gotOK, wantD, wantOK)
				}
				if gotOK {
					if err := sd.Remove(site, k); err != nil {
						t.Fatalf("seed %d step %d: sparse remove: %v", seed, step, err)
					}
					if err := dd.Remove(site, k); err != nil {
						t.Fatalf("seed %d step %d: dense remove: %v", seed, step, err)
					}
				}
			}
			if sd.Cost() != dd.Cost() {
				t.Fatalf("seed %d step %d: cost sparse %d, dense %d", seed, step, sd.Cost(), dd.Cost())
			}
			if full := NewEvaluator(mo).Cost(a); full != sd.Cost() {
				t.Fatalf("seed %d step %d: cached cost %d, full re-eval %d", seed, step, sd.Cost(), full)
			}
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d: final assignment invalid: %v", seed, err)
		}
	}
}

func TestEmptyReplicatorsDegenerate(t *testing.T) {
	mo := testModel(t, 6, 8, 2)
	ev := NewEvaluator(mo)
	for k := 0; k < mo.Objects(); k++ {
		if got := ev.ObjectCost(k, nil); got != mo.vPrime[k] {
			t.Fatalf("object %d: empty-replicator cost %d, want V′ %d", k, got, mo.vPrime[k])
		}
	}
}

// TestObjectCostEveryDegree prices every object at every replica degree
// 0…M, each degree once with the primary in the set and once without, so
// readers and writers fall both inside and outside the set. On instances
// converted from dense problems (M = 5, 12 and 65) it holds ObjectCost to
// core's; on a generated CSR instance (M = 64) to denseFormObjectCost. It
// kills a kernel that charges a replicator writer its shipping, and one
// that seeds a reader's min from SP_k's row instead of the first
// replicator's, which only a set without the primary can tell apart.
func TestObjectCostEveryDegree(t *testing.T) {
	// set draws a random ascending set of degree distinct sites that holds
	// sp iff withPrimary; ok is false if no such set exists.
	set := func(rng *xrand.Source, m, degree int, sp int32, withPrimary bool) (repl []int32, ok bool) {
		if (withPrimary && degree == 0) || (!withPrimary && degree == m) {
			return nil, false
		}
		if withPrimary {
			repl = append(repl, sp)
		}
		for _, j := range rng.Perm(m) {
			if len(repl) == degree {
				break
			}
			if int32(j) != sp {
				repl = append(repl, int32(j))
			}
		}
		slices.Sort(repl)
		return repl, true
	}
	// every prices each object of mo at every degree with price and fails
	// on the first disagreement; it counts how often a reader and a writer
	// other than the primary sat inside the set, so an instance that never
	// exercises those branches fails too.
	every := func(name string, mo *Model, seed uint64, price func(k int, repl []int32) int64) {
		t.Helper()
		rng := xrand.New(seed)
		ev := NewEvaluator(mo)
		var readersIn, writersIn int
		for k := 0; k < mo.Objects(); k++ {
			sp := mo.Primary(k)
			rs, _ := mo.readEntries(k)
			ws, _ := mo.writeEntries(k)
			for degree := 0; degree <= mo.m; degree++ {
				for _, withPrimary := range []bool{true, false} {
					repl, ok := set(rng, mo.m, degree, sp, withPrimary)
					if !ok {
						continue
					}
					if got, want := ev.ObjectCost(k, repl), price(k, repl); got != want {
						t.Fatalf("%s: object %d, set %v (primary %d): ObjectCost = %d, want %d", name, k, repl, sp, got, want)
					}
					for _, j := range repl {
						if j == sp {
							continue
						}
						if slices.Contains(rs, j) {
							readersIn++
						}
						if slices.Contains(ws, j) {
							writersIn++
						}
					}
				}
			}
		}
		if readersIn == 0 || writersIn == 0 {
			t.Fatalf("%s: %d readers and %d writers inside a set: the instance does not exercise the kernel", name, readersIn, writersIn)
		}
	}
	for _, m := range []int{5, 12, 65} {
		p, err := workload.Generate(workload.NewSpec(m, 2*m, 0.3, 0.2), uint64(m))
		if err != nil {
			t.Fatalf("M=%d: %v", m, err)
		}
		mo, err := FromProblem(p)
		if err != nil {
			t.Fatalf("M=%d: %v", m, err)
		}
		dense := core.NewEvaluator(p)
		every(fmt.Sprintf("dense M=%d", m), mo, uint64(100+m), dense.ObjectCost)
	}
	mo := testModel(t, 64, 300, 3)
	dmin := make([]int64, mo.m)
	every("CSR M=64", mo, 7, func(k int, repl []int32) int64 { return denseFormObjectCost(mo, k, repl, dmin) })
}
