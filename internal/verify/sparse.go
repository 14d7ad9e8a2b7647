package verify

// Differential and property checks for the internal/sparse solver core.
// Wherever the dense and sparse paths both apply they must agree
// bit-for-bit: full evaluation and delta evaluation are compared against
// the dense implementations on random schemes and mutation walks, the
// sharded solve is held shard-count-invariant, and the candidate
// pruning is checked against the exhaustive optimum (soundness) and under
// site relabelling (equivariance). Registering the checks here puts the
// sparse core under the same drpverify soak + ddmin shrinker as eq. 4
// itself.

import (
	"fmt"

	"drp/internal/baseline"
	"drp/internal/core"
	"drp/internal/solver"
	"drp/internal/sparse"
)

// checkSparseEval: the sparse evaluator agrees with the dense evaluator on
// random schemes, object by object and in total.
func checkSparseEval(cx *Ctx) error {
	p := cx.P
	mo, err := sparse.FromProblem(p)
	if err != nil {
		return fmt.Errorf("sparse conversion: %w", err)
	}
	ev := sparse.NewEvaluator(mo)
	for trial := 0; trial < 4; trial++ {
		s := randomScheme(p, cx.RNG)
		a, err := sparse.FromScheme(mo, s)
		if err != nil {
			return fmt.Errorf("trial %d: scheme conversion: %w", trial, err)
		}
		want := cx.schemeCost(s)
		if got := ev.Cost(a); got != want {
			return fmt.Errorf("trial %d: sparse cost %d != dense %d (%d replicas)", trial, got, want, s.TotalReplicas())
		}
		for k := 0; k < p.Objects(); k++ {
			dense := s.ObjectCost(k)
			if got := ev.ObjectCost(k, a.Replicators(k)); got != dense {
				return fmt.Errorf("trial %d: object %d sparse V=%d != dense %d", trial, k, got, dense)
			}
		}
	}
	return nil
}

// checkSparseDelta: along one random mutation walk the dense and sparse
// delta evaluators accept the same moves, predict identical deltas, and
// track identical running costs, all equal to a dense full re-evaluation.
func checkSparseDelta(cx *Ctx) error {
	p := cx.P
	mo, err := sparse.FromProblem(p)
	if err != nil {
		return fmt.Errorf("sparse conversion: %w", err)
	}
	s := core.NewScheme(p)
	d := core.NewDeltaEvaluator(s)
	a := sparse.NewAssignment(mo)
	sd := sparse.NewDeltaEvaluator(a)
	for step := 0; step < 40; step++ {
		i, k := cx.RNG.Intn(p.Sites()), cx.RNG.Intn(p.Objects())
		var densePred, sparsePred int64
		var denseOK, sparseOK bool
		removing := s.Has(i, k)
		if removing {
			densePred, denseOK = d.RemoveDelta(i, k)
			sparsePred, sparseOK = sd.RemoveDelta(i, k)
		} else {
			densePred, denseOK = d.AddDelta(i, k)
			sparsePred, sparseOK = sd.AddDelta(i, k)
		}
		if denseOK != sparseOK {
			return fmt.Errorf("step %d (site %d, object %d): dense accepts=%v, sparse accepts=%v", step, i, k, denseOK, sparseOK)
		}
		if !denseOK {
			continue
		}
		if densePred != sparsePred {
			return fmt.Errorf("step %d (site %d, object %d): dense delta %d != sparse delta %d", step, i, k, densePred, sparsePred)
		}
		var denseErr, sparseErr error
		if removing {
			denseErr, sparseErr = d.Remove(i, k), sd.Remove(i, k)
		} else {
			denseErr, sparseErr = d.Add(i, k), sd.Add(i, k)
		}
		if denseErr != nil || sparseErr != nil {
			return fmt.Errorf("step %d: accepted move failed to apply: dense %v, sparse %v", step, denseErr, sparseErr)
		}
		full := cx.schemeCost(s)
		if sd.Cost() != full {
			return fmt.Errorf("step %d (site %d, object %d): sparse running cost %d != dense re-eval %d", step, i, k, sd.Cost(), full)
		}
		if sd.ObjectCost(k) != s.ObjectCost(k) {
			return fmt.Errorf("step %d: sparse V_%d=%d != dense %d", step, k, sd.ObjectCost(k), s.ObjectCost(k))
		}
	}
	if err := a.Validate(); err != nil {
		return fmt.Errorf("assignment invariants broken after mutation walk: %w", err)
	}
	return nil
}

// sparseShardCounts are the shard widths the determinism check compares.
var sparseShardCounts = []int{1, 2, 8}

// checkSparseShards: the sharded sparse solve is bit-identical at every
// shard count, its reported cost matches the dense evaluator, and it never
// loses to the no-replication allocation.
func checkSparseShards(cx *Ctx) error {
	p := cx.P
	mo, err := sparse.FromProblem(p)
	if err != nil {
		return fmt.Errorf("sparse conversion: %w", err)
	}
	var first *sparse.Result
	for _, shards := range sparseShardCounts {
		res, err := sparse.Solve(mo, sparse.SolveParams{Shards: shards}, solver.Run{})
		if err != nil {
			return fmt.Errorf("solve at %d shards: %w", shards, err)
		}
		if err := res.Assignment.Validate(); err != nil {
			return fmt.Errorf("solve at %d shards: invalid assignment: %w", shards, err)
		}
		if res.Cost > p.DPrime() {
			return fmt.Errorf("solve at %d shards: cost %d exceeds no-replication D′ %d", shards, res.Cost, p.DPrime())
		}
		s, err := res.Assignment.ToScheme(p)
		if err != nil {
			return fmt.Errorf("solve at %d shards: result does not convert: %w", shards, err)
		}
		if c := cx.schemeCost(s); c != res.Cost {
			return fmt.Errorf("solve at %d shards: reported cost %d but dense evaluator says %d", shards, res.Cost, c)
		}
		if first == nil {
			first = res
			continue
		}
		if res.Cost != first.Cost {
			return fmt.Errorf("shards %d vs %d: cost %d != %d", shards, sparseShardCounts[0], res.Cost, first.Cost)
		}
		if !res.Assignment.Equal(first.Assignment) {
			return fmt.Errorf("shards %d vs %d: assignments differ", shards, sparseShardCounts[0])
		}
		if res.Stats.Evaluations != first.Stats.Evaluations {
			return fmt.Errorf("shards %d vs %d: evaluation count %d != %d", shards, sparseShardCounts[0], res.Stats.Evaluations, first.Stats.Evaluations)
		}
	}
	return nil
}

// checkSparsePrune (small instances): candidate pruning is sound — every
// replica site the exhaustive optimum uses survives pruning, so the sparse
// solver's search space always contains the optimum.
func checkSparsePrune(cx *Ctx) error {
	p := cx.P
	opt, err := baseline.Optimal(p, smallFreeBitLimit)
	if err != nil {
		return nil // instance larger than the exhaustive gate; skip
	}
	mo, err := sparse.FromProblem(p)
	if err != nil {
		return fmt.Errorf("sparse conversion: %w", err)
	}
	for k := 0; k < p.Objects(); k++ {
		for _, i := range opt.Replicators(k) {
			if int32(i) == mo.Primary(k) {
				continue
			}
			if !containsSite(mo.Candidates(k), int32(i)) {
				return fmt.Errorf("object %d: optimum replicates at site %d but pruning dropped it (candidates %v)",
					k, i, mo.Candidates(k))
			}
		}
	}
	if _, err := sparse.FromScheme(mo, opt); err != nil {
		return fmt.Errorf("optimal scheme does not convert: %w", err)
	}
	return nil
}

// checkSparsePrunePerm: candidate pruning is equivariant under site
// relabelling — permuting the sites permutes every candidate list and
// nothing else.
func checkSparsePrunePerm(cx *Ctx) error {
	p := cx.P
	perm := cx.RNG.Perm(p.Sites()) // new index a holds old site perm[a]
	q, inv, err := permuteSites(p, perm)
	if err != nil {
		return err
	}
	mo, err := sparse.FromProblem(p)
	if err != nil {
		return fmt.Errorf("sparse conversion: %w", err)
	}
	mq, err := sparse.FromProblem(q)
	if err != nil {
		return fmt.Errorf("permuted sparse conversion: %w", err)
	}
	for k := 0; k < p.Objects(); k++ {
		orig := mo.Candidates(k)
		want := make(map[int32]bool, len(orig))
		for _, i := range orig {
			want[int32(inv[i])] = true
		}
		got := mq.Candidates(k)
		if len(got) != len(want) {
			return fmt.Errorf("object %d: candidate count %d after relabelling, want %d (perm %v)", k, len(got), len(want), perm)
		}
		for _, i := range got {
			if !want[i] {
				return fmt.Errorf("object %d: site %d is a candidate after relabelling but its preimage %d was not (perm %v)",
					k, i, perm[i], perm)
			}
		}
	}
	return nil
}

// containsSite reports membership in an ascending candidate list.
func containsSite(list []int32, site int32) bool {
	for _, s := range list {
		if s == site {
			return true
		}
		if s > site {
			return false
		}
	}
	return false
}
