package sparse

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"drp/internal/solver"
	"drp/internal/workload"
)

// setProcs sets GOMAXPROCS, which sizes the proposal fan-out, to n until
// the test ends.
func setProcs(t testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestSolveValid(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		mo := testModel(t, 14, 120, seed)
		res, err := Solve(mo, SolveParams{}, solver.Run{})
		if err != nil {
			t.Fatalf("seed %d: solve: %v", seed, err)
		}
		if err := res.Assignment.Validate(); err != nil {
			t.Fatalf("seed %d: invalid assignment: %v", seed, err)
		}
		if full := NewEvaluator(mo).Cost(res.Assignment); full != res.Cost {
			t.Fatalf("seed %d: incremental cost %d, full re-eval %d", seed, res.Cost, full)
		}
		if res.Cost > mo.DPrime() {
			t.Fatalf("seed %d: cost %d exceeds D′ %d", seed, res.Cost, mo.DPrime())
		}
		if res.Applied+res.Truncated != res.Proposed {
			t.Fatalf("seed %d: applied %d + truncated %d != proposed %d", seed, res.Applied, res.Truncated, res.Proposed)
		}
		if res.Stats.Stopped != solver.StopCompleted {
			t.Fatalf("seed %d: stopped %v, want completed", seed, res.Stats.Stopped)
		}
		if res.Stats.Evaluations == 0 {
			t.Fatalf("seed %d: no evaluations metered", seed)
		}
	}
}

// TestSolveShardDeterminism is the seed-determinism satellite for the raw
// sharded solver: GOMAXPROCS 1, 2 and 8 yield bit-identical assignments.
func TestSolveShardDeterminism(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		mo := testModel(t, 16, 200, seed)
		setProcs(t, 1)
		base, err := Solve(mo, SolveParams{}, solver.Run{})
		if err != nil {
			t.Fatalf("seed %d: solve: %v", seed, err)
		}
		for _, procs := range []int{2, 8} {
			setProcs(t, procs)
			res, err := Solve(mo, SolveParams{}, solver.Run{})
			if err != nil {
				t.Fatalf("seed %d GOMAXPROCS %d: solve: %v", seed, procs, err)
			}
			if res.Cost != base.Cost {
				t.Fatalf("seed %d GOMAXPROCS %d: cost %d, serial %d", seed, procs, res.Cost, base.Cost)
			}
			if !res.Assignment.Equal(base.Assignment) {
				t.Fatalf("seed %d GOMAXPROCS %d: assignment diverges from serial", seed, procs)
			}
			if res.Stats.Evaluations != base.Stats.Evaluations {
				t.Fatalf("seed %d GOMAXPROCS %d: evaluations %d, serial %d", seed, procs,
					res.Stats.Evaluations, base.Stats.Evaluations)
			}
		}
	}
}

// assignmentDigest is the first 16 hex characters of sha256 over every
// object's replica list, k ascending.
func assignmentDigest(a *Assignment) string {
	h := sha256.New()
	for k := 0; k < a.mo.Objects(); k++ {
		fmt.Fprint(h, a.Replicators(k), ";")
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestSolvePinned pins the sparse trajectory — night Solve, then Adapt of
// the night placement on a 5 % perturbation — at GOMAXPROCS 1, 2 and 8:
// costs, evaluation counts, merge counters and the placement itself. Any
// change to candidate pruning, the greedy's tie rule, proposal bookkeeping
// or the merge order moves at least one of these numbers.
func TestSolvePinned(t *testing.T) {
	spec := NewWorkloadSpec(64, 3000)
	night, err := GenerateWorkload(spec, 1)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	day, changed, err := PerturbWorkload(night, spec, 0.05, 1)
	if err != nil {
		t.Fatalf("perturb: %v", err)
	}
	for _, procs := range []int{1, 2, 8} {
		setProcs(t, procs)
		solved, err := Solve(night, SolveParams{}, solver.Run{})
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: solve: %v", procs, err)
		}
		got := [...]int{int(solved.Cost), solved.Stats.Evaluations, solved.Proposed, solved.Applied, solved.Truncated}
		if want := [...]int{5793614, 18572, 13532, 13474, 58}; got != want {
			t.Errorf("GOMAXPROCS %d: Solve cost/evals/proposed/applied/truncated %v, want %v", procs, got, want)
		}
		if d := assignmentDigest(solved.Assignment); d != "b8ce4e7203c903df" {
			t.Errorf("GOMAXPROCS %d: Solve placement digest %s", procs, d)
		}
		carried := NewAssignment(day)
		for k := 0; k < day.Objects(); k++ {
			for _, i := range solved.Assignment.Replicators(k) {
				if i != day.Primary(k) {
					if err := carried.Add(int(i), k); err != nil {
						t.Fatalf("GOMAXPROCS %d: rebind object %d: %v", procs, k, err)
					}
				}
			}
		}
		adapted, err := Adapt(day, carried, changed, SolveParams{}, solver.Run{})
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: adapt: %v", procs, err)
		}
		got2 := [...]int{int(adapted.Cost), adapted.Stats.Evaluations, adapted.Applied, adapted.Truncated}
		if want := [...]int{5839885, 1125, 660, 26}; got2 != want {
			t.Errorf("GOMAXPROCS %d: Adapt cost/evals/applied/truncated %v, want %v", procs, got2, want)
		}
		if d := assignmentDigest(adapted.Assignment); d != "37bc79c5c778d633" {
			t.Errorf("GOMAXPROCS %d: Adapt placement digest %s", procs, d)
		}
	}
}

// naiveProposal is the greedy descent written from the definition: each
// round prices every candidate not yet placed by a full V_k evaluation of
// the list plus that site, ascending with strict <, so the most negative
// delta wins and ties go to the lowest site; it stops at the first round
// without a negative delta or at defaultMaxReplicas−1 adds.
func naiveProposal(ev *Evaluator, mo *Model, k int) proposal {
	var p proposal
	repl := []int32{mo.Primary(k)}
	cur := ev.ObjectCost(k, repl)
	for p.n < defaultMaxReplicas-1 {
		best, bestDelta := int32(-1), int64(0)
		for _, x := range mo.Candidates(k) {
			idx, placed := slices.BinarySearch(repl, x)
			if placed {
				continue
			}
			if d := ev.ObjectCost(k, slices.Insert(slices.Clone(repl), idx, x)) - cur; d < bestDelta {
				best, bestDelta = x, d
			}
		}
		if best < 0 {
			break
		}
		idx, _ := slices.BinarySearch(repl, best)
		repl = slices.Insert(repl, idx, best)
		cur += bestDelta
		p.sites[p.n], p.deltas[p.n] = best, bestDelta
		p.n++
	}
	return p
}

// TestProposeMatchesNaiveGreedy holds every proposal to naiveProposal,
// site for site and delta for delta, on one-, two- and three-word
// candidate masks and on dense workload instances, and checks the
// invariant the merge's single sort rests on: within a proposal the deltas
// are negative and non-decreasing.
func TestProposeMatchesNaiveGreedy(t *testing.T) {
	var models []*Model
	for _, dims := range [][2]int{{12, 300}, {65, 200}, {130, 120}} {
		models = append(models, testModel(t, dims[0], dims[1], 3))
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
		models = append(models, mo)
	}
	for mi, mo := range models {
		objects := make([]int, mo.Objects())
		for k := range objects {
			objects[k] = k
		}
		props := make([]proposal, len(objects))
		propose(mo, objects, props, solver.Start("sparse", solver.Run{}))
		ev := NewEvaluator(mo)
		steps := 0
		for k, got := range props {
			if want := naiveProposal(ev, mo, k); got != want {
				t.Fatalf("model %d (M=%d) object %d: proposal %v %v, naive greedy %v %v", mi, mo.m, k,
					got.sites[:got.n], got.deltas[:got.n], want.sites[:want.n], want.deltas[:want.n])
			}
			for s := 0; s < got.n; s++ {
				if got.deltas[s] >= 0 || (s > 0 && got.deltas[s] < got.deltas[s-1]) {
					t.Fatalf("model %d object %d: deltas %v are not negative and non-decreasing", mi, k, got.deltas[:got.n])
				}
			}
			steps += got.n
		}
		if steps == 0 {
			t.Fatalf("model %d proposes nothing; it does not exercise the greedy", mi)
		}
	}
}

// TestSolveInterruptedPinned pins what an interrupted merge leaves behind:
// a cancel at the 65 536th applied step (the first Observe), on an instance
// whose sites have room and on one whose sites have already rejected
// steps by then, at GOMAXPROCS 1 and 2; and a budget spent during the
// propose phase, at GOMAXPROCS 1. The cost stays exact.
func TestSolveInterruptedPinned(t *testing.T) {
	tight := NewWorkloadSpec(64, 20000)
	tight.CapacityRatio = 0.08
	crowded, err := GenerateWorkload(tight, 1)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	for _, tc := range []struct {
		mo   *Model
		cost int
	}{{testModel(t, 64, 20000, 1), 47523242}, {crowded, 51272939}} {
		for _, procs := range []int{1, 2} {
			setProcs(t, procs)
			ctx, cancel := context.WithCancel(context.Background())
			stopAt := solver.ObserverFunc(func(p solver.Progress) {
				if p.Iteration >= 65536 {
					cancel()
				}
			})
			res, err := Solve(tc.mo, SolveParams{}, solver.Run{Context: ctx, Observer: stopAt})
			cancel()
			if err != nil {
				t.Fatalf("GOMAXPROCS %d: solve: %v", procs, err)
			}
			if res.Stats.Stopped != solver.StopCancelled {
				t.Fatalf("GOMAXPROCS %d: stopped %v, want cancelled", procs, res.Stats.Stopped)
			}
			got := [...]int{int(res.Cost), res.Proposed, res.Applied, res.Truncated}
			if want := [...]int{tc.cost, 90115, 65536, 24579}; got != want {
				t.Errorf("GOMAXPROCS %d: cost/proposed/applied/truncated %v, want %v", procs, got, want)
			}
			if full := NewEvaluator(tc.mo).Cost(res.Assignment); full != res.Cost {
				t.Errorf("GOMAXPROCS %d: cost %d, full re-eval %d", procs, res.Cost, full)
			}
		}
	}

	small := testModel(t, 12, 150, 4)
	setProcs(t, 1)
	res, err := Solve(small, SolveParams{}, solver.Run{Budget: 20})
	if err != nil {
		t.Fatalf("budget: solve: %v", err)
	}
	got := [...]int{int(res.Cost), res.Proposed, res.Applied, res.Truncated}
	if want := [...]int{1557212, 18, 0, 18}; got != want {
		t.Errorf("budget 20: cost/proposed/applied/truncated %v, want %v", got, want)
	}
}

func TestSolveBudget(t *testing.T) {
	mo := testModel(t, 12, 150, 4)
	res, err := Solve(mo, SolveParams{}, solver.Run{Budget: 20})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if res.Stats.Stopped != solver.StopBudget {
		t.Fatalf("stopped %v, want budget", res.Stats.Stopped)
	}
	if err := res.Assignment.Validate(); err != nil {
		t.Fatalf("interrupted assignment invalid: %v", err)
	}
	if full := NewEvaluator(mo).Cost(res.Assignment); full != res.Cost {
		t.Fatalf("interrupted cost %d, full re-eval %d", res.Cost, full)
	}
}

func TestSolveCancelled(t *testing.T) {
	mo := testModel(t, 10, 60, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	setProcs(t, 4)
	res, err := Solve(mo, SolveParams{}, solver.Run{Context: ctx})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if res.Stats.Stopped != solver.StopCancelled {
		t.Fatalf("stopped %v, want cancelled", res.Stats.Stopped)
	}
	if err := res.Assignment.Validate(); err != nil {
		t.Fatalf("cancelled assignment invalid: %v", err)
	}
	if full := NewEvaluator(mo).Cost(res.Assignment); full != res.Cost {
		t.Fatalf("cancelled cost %d, full re-eval %d", res.Cost, full)
	}
}

// TestAdapt re-optimises only shifted objects: untouched objects keep their
// placement bit-identically and the cost stays exact.
func TestAdapt(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		spec := NewWorkloadSpec(14, 150)
		mo, err := GenerateWorkload(spec, seed)
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		setProcs(t, 2)
		first, err := Solve(mo, SolveParams{}, solver.Run{})
		if err != nil {
			t.Fatalf("seed %d: solve: %v", seed, err)
		}
		shifted, changed, err := PerturbWorkload(mo, spec, 0.2, seed*101)
		if err != nil {
			t.Fatalf("seed %d: perturb: %v", seed, err)
		}
		if len(changed) == 0 {
			t.Fatalf("seed %d: perturbation changed nothing", seed)
		}
		// Rebase the assignment onto the shifted model: placements carry
		// over (sizes and primaries are shared), candidates may differ only
		// for changed objects, which Adapt strips anyway.
		carried := NewAssignment(shifted)
		changedSet := make(map[int]bool, len(changed))
		for _, k := range changed {
			changedSet[k] = true
		}
		for k := 0; k < mo.Objects(); k++ {
			if changedSet[k] {
				continue
			}
			for _, i := range first.Assignment.Replicators(k) {
				if i != shifted.Primary(k) {
					if err := carried.Add(int(i), k); err != nil {
						t.Fatalf("seed %d: carry over object %d: %v", seed, k, err)
					}
				}
			}
		}
		before := carried.Clone()
		res, err := Adapt(shifted, carried, changed, SolveParams{}, solver.Run{})
		if err != nil {
			t.Fatalf("seed %d: adapt: %v", seed, err)
		}
		if err := res.Assignment.Validate(); err != nil {
			t.Fatalf("seed %d: adapted assignment invalid: %v", seed, err)
		}
		if full := NewEvaluator(shifted).Cost(res.Assignment); full != res.Cost {
			t.Fatalf("seed %d: adapted cost %d, full re-eval %d", seed, res.Cost, full)
		}
		for k := 0; k < mo.Objects(); k++ {
			if changedSet[k] {
				continue
			}
			got := res.Assignment.Replicators(k)
			want := before.Replicators(k)
			if len(got) != len(want) {
				t.Fatalf("seed %d: untouched object %d moved: %v -> %v", seed, k, want, got)
			}
			for idx := range got {
				if got[idx] != want[idx] {
					t.Fatalf("seed %d: untouched object %d moved: %v -> %v", seed, k, want, got)
				}
			}
		}
		// Adapt must also be deterministic across worker counts.
		setProcs(t, 8)
		again, err := Adapt(shifted, before.Clone(), changed, SolveParams{}, solver.Run{})
		if err != nil {
			t.Fatalf("seed %d: re-adapt: %v", seed, err)
		}
		if !again.Assignment.Equal(res.Assignment) || again.Cost != res.Cost || again.Stats.Evaluations != res.Stats.Evaluations {
			t.Fatalf("seed %d: adapt diverges across worker counts", seed)
		}
	}
}

func TestAdaptRejectsBadObject(t *testing.T) {
	mo := testModel(t, 8, 10, 1)
	if _, err := Adapt(mo, NewAssignment(mo), []int{10}, SolveParams{}, solver.Run{}); err == nil {
		t.Fatal("out-of-range changed object accepted")
	}
}

// TestAdaptRejectsForeignAssignment: an assignment of another model is
// refused before anything is mutated — one with fewer objects, which the
// start pass would index past its end, and one of a same-shaped sibling
// (the perturbed model), which would come back still bound to the old one.
func TestAdaptRejectsForeignAssignment(t *testing.T) {
	spec := NewWorkloadSpec(8, 40)
	night, err := GenerateWorkload(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	day, changed, err := PerturbWorkload(night, spec, 0.2, 2)
	if err != nil {
		t.Fatal(err)
	}
	solved, err := Solve(night, SolveParams{}, solver.Run{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mo   *Model
		a    *Assignment
	}{
		{"fewer objects", night, NewAssignment(testModel(t, 8, 10, 1))},
		{"same-shaped sibling", day, solved.Assignment},
	} {
		before := tc.a.Clone()
		if _, err := Adapt(tc.mo, tc.a, changed, SolveParams{}, solver.Run{}); err == nil || !strings.Contains(err.Error(), "rebind") {
			t.Fatalf("%s: Adapt returned %v, want an error naming the rebind", tc.name, err)
		}
		if !tc.a.Equal(before) {
			t.Fatalf("%s: the refused assignment was mutated", tc.name)
		}
		for i := 0; i < tc.a.mo.m; i++ {
			if tc.a.used[i] != before.used[i] {
				t.Fatalf("%s: site %d usage moved from %d to %d", tc.name, i, before.used[i], tc.a.used[i])
			}
		}
	}
}

// TestAdaptPricesEachUnchangedObjectOnce: the start pass prices V_k of every
// object not listed in changed, once, and no changed object at all — over
// two chunks on two workers, with a repeated entry in changed — and the cost
// it starts from is still exact.
func TestAdaptPricesEachUnchangedObjectOnce(t *testing.T) {
	mo := testModel(t, 8, objectChunk+37, 5)
	setProcs(t, 2)
	solved, err := Solve(mo, SolveParams{}, solver.Run{})
	if err != nil {
		t.Fatal(err)
	}
	changed := []int{3, objectChunk + 1, 3, 17, objectChunk + 36, 17}
	ev := NewEvaluator(mo)
	res, err := ev.adapt(solved.Assignment, changed, solver.Run{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ev.priced.Load(), int64(mo.Objects()-4); got != want {
		t.Fatalf("adapt priced %d V_k, want N − |distinct changed| = %d", got, want)
	}
	if full := NewEvaluator(mo).Cost(res.Assignment); full != res.Cost {
		t.Fatalf("adapted cost %d, full re-eval %d", res.Cost, full)
	}
}

func TestGenerateDeterminism(t *testing.T) {
	spec := NewWorkloadSpec(20, 300)
	a, err := GenerateWorkload(spec, 42)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	b, err := GenerateWorkload(spec, 42)
	if err != nil {
		t.Fatalf("generate again: %v", err)
	}
	if a.DPrime() != b.DPrime() {
		t.Fatalf("same seed, D′ %d vs %d", a.DPrime(), b.DPrime())
	}
	ra, wa := a.AccessEntries()
	rb, wb := b.AccessEntries()
	if ra != rb || wa != wb {
		t.Fatalf("same seed, nnz (%d,%d) vs (%d,%d)", ra, wa, rb, wb)
	}
	for k := 0; k < a.Objects(); k++ {
		as, ac := a.readEntries(k)
		bs, bc := b.readEntries(k)
		if len(as) != len(bs) {
			t.Fatalf("object %d: reader counts differ", k)
		}
		for idx := range as {
			if as[idx] != bs[idx] || ac[idx] != bc[idx] {
				t.Fatalf("object %d: read entries differ", k)
			}
		}
	}
	other, err := GenerateWorkload(spec, 43)
	if err != nil {
		t.Fatalf("generate other: %v", err)
	}
	if other.DPrime() == a.DPrime() {
		t.Fatalf("different seeds produced identical D′ %d", a.DPrime())
	}
}

func TestPerturbDeterminismAndIsolation(t *testing.T) {
	spec := NewWorkloadSpec(12, 100)
	mo, err := GenerateWorkload(spec, 7)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	s1, c1, err := PerturbWorkload(mo, spec, 0.3, 11)
	if err != nil {
		t.Fatalf("perturb: %v", err)
	}
	s2, c2, err := PerturbWorkload(mo, spec, 0.3, 11)
	if err != nil {
		t.Fatalf("perturb again: %v", err)
	}
	if len(c1) != len(c2) {
		t.Fatalf("same seed, %d vs %d changed objects", len(c1), len(c2))
	}
	changedSet := make(map[int]bool, len(c1))
	for idx, k := range c1 {
		if c2[idx] != k {
			t.Fatalf("same seed, changed lists differ at %d", idx)
		}
		changedSet[k] = true
	}
	if s1.DPrime() != s2.DPrime() {
		t.Fatalf("same seed, shifted D′ %d vs %d", s1.DPrime(), s2.DPrime())
	}
	// Unchanged objects keep their exact access entries; V′ follows.
	for k := 0; k < mo.Objects(); k++ {
		if changedSet[k] {
			continue
		}
		os, oc := mo.readEntries(k)
		ns, nc := s1.readEntries(k)
		if len(os) != len(ns) {
			t.Fatalf("unchanged object %d: reader count moved", k)
		}
		for idx := range os {
			if os[idx] != ns[idx] || oc[idx] != nc[idx] {
				t.Fatalf("unchanged object %d: read entries moved", k)
			}
		}
		if mo.vPrime[k] != s1.vPrime[k] {
			t.Fatalf("unchanged object %d: V′ moved %d -> %d", k, mo.vPrime[k], s1.vPrime[k])
		}
	}
}

// TestPerturbRejectsBadFraction: a fraction outside [0,1], NaN included,
// is an error, not a silent no-op perturbation.
func TestPerturbRejectsBadFraction(t *testing.T) {
	spec := NewWorkloadSpec(6, 20)
	mo, err := GenerateWorkload(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{-0.1, 1.5, math.NaN(), math.Inf(1)} {
		if _, _, err := PerturbWorkload(mo, spec, frac, 2); err == nil {
			t.Errorf("fraction %v accepted", frac)
		}
	}
}

// TestSolveMatchesDeltaDescent cross-checks the greedy proposal deltas: on
// an uncontended instance (capacities never bind during the merge), every
// applied step's delta must equal the dense-mirroring delta evaluator's
// prediction for the same (site, object) in the same order.
func TestSolveCostAgainstDeltaEvaluator(t *testing.T) {
	mo := testModel(t, 10, 40, 6)
	res, err := Solve(mo, SolveParams{}, solver.Run{})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	// Replay the final assignment through the delta evaluator: summing
	// AddDelta along any order that reconstructs it must land on the same
	// cost (deltas are exact, order-dependent individually but the final
	// cost is a state function).
	replay := NewDeltaEvaluator(NewAssignment(mo))
	for k := 0; k < mo.Objects(); k++ {
		for _, i := range res.Assignment.Replicators(k) {
			if i == mo.Primary(k) {
				continue
			}
			if err := replay.Add(int(i), k); err != nil {
				t.Fatalf("replay add(%d,%d): %v", i, k, err)
			}
		}
	}
	if replay.Cost() != res.Cost {
		t.Fatalf("replayed cost %d, solver cost %d", replay.Cost(), res.Cost)
	}
}
