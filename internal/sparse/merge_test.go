package sparse

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"drp/internal/core"
	"drp/internal/solver"
	"drp/internal/workload"
	"drp/internal/xrand"
)

// referenceMerge is the capacity-ledger merge written from its definition:
// every proposed step sorted by float64 benefit density (saving per storage
// unit) desc, then benefit desc, then position in objects, then step, and
// applied with Assignment.Add; an object's first ErrCapacity drops the rest
// of its steps. It returns the final cost and Proposed, Applied, Truncated.
func referenceMerge(t *testing.T, mo *Model, a *Assignment, cost int64, objects []int, props []proposal) (int64, [3]int) {
	t.Helper()
	type step struct{ idx, s int }
	var steps []step
	for idx := range props {
		for s := range props[idx].n {
			steps = append(steps, step{idx, s})
		}
	}
	delta := func(st step) int64 { return props[st.idx].deltas[st.s] }
	density := func(st step) float64 { return float64(-delta(st)) / float64(mo.size[objects[st.idx]]) }
	slices.SortStableFunc(steps, func(x, y step) int {
		return cmp.Or(cmp.Compare(density(y), density(x)), cmp.Compare(delta(x), delta(y)),
			cmp.Compare(x.idx, y.idx), cmp.Compare(x.s, y.s))
	})
	dead := make([]bool, len(props))
	applied := 0
	for _, st := range steps {
		if dead[st.idx] {
			continue
		}
		if err := a.Add(int(props[st.idx].sites[st.s]), objects[st.idx]); err != nil {
			if !errors.Is(err, core.ErrCapacity) {
				t.Fatalf("reference merge: object %d step %d: %v", objects[st.idx], st.s, err)
			}
			dead[st.idx] = true
			continue
		}
		cost += delta(st)
		applied++
	}
	return cost, [3]int{len(steps), applied, len(steps) - applied}
}

// referenceAdapt strips the changed objects of a copy of a to their
// primaries, proposes them afresh and merges them with referenceMerge.
func referenceAdapt(t *testing.T, mo *Model, a *Assignment, changed []int) (*Assignment, int64, [3]int) {
	t.Helper()
	ref := a.Clone()
	var objects []int
	for _, k := range changed {
		if slices.Contains(objects, k) {
			continue
		}
		objects = append(objects, k)
		for _, i := range slices.Clone(ref.Replicators(k)) {
			if i != mo.Primary(k) {
				if err := ref.remove(int(i), k); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	props := make([]proposal, len(objects))
	propose(mo, objects, props, solver.Start("sparse", solver.Run{}))
	cost, counts := referenceMerge(t, mo, ref, NewEvaluator(mo).Cost(ref), objects, props)
	return ref, cost, counts
}

// TestMergeMatchesReferenceLedger holds Solve and Adapt to referenceMerge —
// placement, cost and step counts — at GOMAXPROCS 1, 2 and 8, on sparse
// instances with one-, two- and three-word candidate masks at roomy and
// tight capacity, on dense workload instances, and on Adapt of a perturbed
// day whose changed list comes in descending order with a repeat, so the
// ledger's object tie-break is the list position, not the object index.
// The unit-size instances, re-drawn in full for Adapt, are where that
// tie-break decides which steps the capacity admits.
func TestMergeMatchesReferenceLedger(t *testing.T) {
	check := func(name string, res *Result, ref *Assignment, cost int64, counts [3]int) {
		t.Helper()
		if got := [3]int{res.Proposed, res.Applied, res.Truncated}; got != counts {
			t.Fatalf("%s: proposed/applied/truncated %v, reference %v", name, got, counts)
		}
		if res.Cost != cost {
			t.Fatalf("%s: cost %d, reference %d", name, res.Cost, cost)
		}
		if !res.Assignment.Equal(ref) {
			t.Fatalf("%s: placement diverges from the reference merge", name)
		}
	}
	truncated := 0
	solveAll := func(name string, mo *Model) *Result {
		objects := make([]int, mo.Objects())
		for k := range objects {
			objects[k] = k
		}
		props := make([]proposal, len(objects))
		propose(mo, objects, props, solver.Start("sparse", solver.Run{}))
		ref := NewAssignment(mo)
		cost, counts := referenceMerge(t, mo, ref, mo.DPrime(), objects, props)
		truncated += counts[2]
		var res *Result
		for _, procs := range []int{1, 2, 8} {
			setProcs(t, procs)
			var err error
			if res, err = Solve(mo, SolveParams{}, solver.Run{}); err != nil {
				t.Fatalf("%s GOMAXPROCS %d: solve: %v", name, procs, err)
			}
			check(name+" solve", res, ref, cost, counts)
		}
		return res
	}

	for _, m := range []int{12, 65, 130} {
		for _, tc := range []struct {
			ratio, frac float64
			size        int
		}{{0.03, 0.2, 35}, {0.15, 0.2, 35}, {0.1, 1, 1}} {
			spec := NewWorkloadSpec(m, 400)
			spec.CapacityRatio, spec.SizeMean = tc.ratio, tc.size
			night, err := GenerateWorkload(spec, uint64(m))
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			name := fmt.Sprintf("M=%d ratio=%v size mean=%d", m, tc.ratio, tc.size)
			solved := solveAll(name, night)
			day, changed, err := PerturbWorkload(night, spec, tc.frac, uint64(m)+1)
			if err != nil {
				t.Fatalf("%s: perturb: %v", name, err)
			}
			carried := NewAssignment(day)
			for k := range day.Objects() {
				for _, i := range solved.Assignment.Replicators(k) {
					if i != day.Primary(k) {
						if err := carried.Add(int(i), k); err != nil {
							t.Fatalf("%s: rebind object %d: %v", name, k, err)
						}
					}
				}
			}
			order := append(slices.Clone(changed), changed[0])
			slices.Reverse(order)
			ref, cost, counts := referenceAdapt(t, day, carried, order)
			truncated += counts[2]
			for _, procs := range []int{1, 2, 8} {
				setProcs(t, procs)
				res, err := Adapt(day, carried.Clone(), order, SolveParams{}, solver.Run{})
				if err != nil {
					t.Fatalf("%s GOMAXPROCS %d: adapt: %v", name, procs, err)
				}
				check(name+" adapt", res, ref, cost, counts)
			}
		}
	}
	for seed := uint64(1); seed <= 3; seed++ {
		p, err := workload.Generate(workload.NewSpec(50, 200, 0.05, 0.15), seed)
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		mo, err := FromProblem(p)
		if err != nil {
			t.Fatalf("seed %d: FromProblem: %v", seed, err)
		}
		solveAll(fmt.Sprintf("dense seed %d", seed), mo)
	}
	if truncated == 0 {
		t.Fatal("no instance truncates a step; the capacity ledger is not exercised")
	}
}

// TestSortLedgerDigits holds sortLedger to slices.SortStableFunc with an
// integer comparator, on keys across the full uint64 range, heavy ties,
// values past 2⁵³ that a float64 cannot tell apart, keys that differ in
// one digit only, and keys that are all equal. Each case also checks the
// pass count through the buffer the result lands in: exactly one scatter
// pass per digit the keys do not all share. The merge's two-key use —
// size then saving — must give (saving desc, size desc, build order).
func TestSortLedgerDigits(t *testing.T) {
	rng := xrand.New(7)
	const n = 5000
	key := func(e *ledgerEntry) uint64 { return uint64(e.saving) }
	for _, tc := range []struct {
		name string
		draw func() uint64
	}{
		{"full range", rng.Uint64},
		{"heavy ties", func() uint64 { return uint64(rng.Intn(4))<<62 | uint64(rng.Intn(3))<<22 | uint64(rng.Intn(2)) }},
		{"past 2^53", func() uint64 { return 1<<53 + uint64(rng.Intn(16)) }},
		{"one digit", func() uint64 { return 7<<33 | uint64(rng.Intn(1<<11))<<11 }},
		{"all equal", func() uint64 { return math.MaxUint64 }},
	} {
		steps := make([]ledgerEntry, n)
		for i := range steps {
			steps[i] = ledgerEntry{saving: int64(tc.draw()), obj: int32(i)}
		}
		want := slices.Clone(steps)
		slices.SortStableFunc(want, func(x, y ledgerEntry) int { return cmp.Compare(key(&x), key(&y)) })
		passes := 0
		for d := range radixDigits {
			shift := d * radixBits
			if slices.ContainsFunc(steps, func(e ledgerEntry) bool { return key(&e)>>shift&radixMask != key(&steps[0])>>shift&radixMask }) {
				passes++
			}
		}
		src, spare := slices.Clone(steps), make([]ledgerEntry, n)
		got, _ := sortLedger(src, spare, key)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: radix order differs from the stable comparator sort", tc.name)
		}
		if inSpare := &got[0] == &spare[0]; inSpare != (passes%2 == 1) {
			t.Fatalf("%s: result in spare %v after %d digit passes", tc.name, inSpare, passes)
		}
	}

	sizes := []int64{1, 69, 35, 69, 2, 1 << 40}
	steps := make([]ledgerEntry, n)
	for i := range steps {
		saving := int64(rng.Intn(500))
		if rng.Bool(0.1) {
			saving += 1 << 53
		}
		steps[i] = ledgerEntry{saving: saving, obj: int32(rng.Intn(len(sizes))), site: int32(i)}
	}
	want := slices.Clone(steps)
	slices.SortStableFunc(want, func(x, y ledgerEntry) int {
		return cmp.Or(cmp.Compare(y.saving, x.saving), cmp.Compare(sizes[y.obj], sizes[x.obj]))
	})
	got, spare := sortLedger(steps, make([]ledgerEntry, n), func(e *ledgerEntry) uint64 { return ^uint64(sizes[e.obj]) })
	got, _ = sortLedger(got, spare, func(e *ledgerEntry) uint64 { return ^uint64(e.saving) })
	if !slices.Equal(got, want) {
		t.Fatal("size then saving passes differ from (saving desc, size desc, build order)")
	}
}
