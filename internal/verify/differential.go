package verify

// Differential checks: two independent computations of the same quantity
// must agree — the production evaluator vs a literal eq. 4 transcription,
// the delta evaluator vs full re-evaluation, pooled vs serial evaluation,
// and the heuristics vs the exhaustive optimum on small instances.

import (
	"fmt"

	"drp/internal/agra"
	"drp/internal/baseline"
	"drp/internal/bitset"
	"drp/internal/core"
	"drp/internal/gra"
	"drp/internal/sra"
	"drp/internal/workload"
)

// naiveCost is eq. 4 written as directly as possible — the slow oracle the
// optimised evaluator must match term for term.
func naiveCost(p *core.Problem, s *core.Scheme) int64 {
	var d int64
	for i := 0; i < p.Sites(); i++ {
		for k := 0; k < p.Objects(); k++ {
			sp := p.Primary(k)
			if s.Has(i, k) {
				// X_ik = 1: the replicator pays the full update fan-in
				// Σ_x w_k(x) · o_k · C(i, SP_k).
				var wTot int64
				for x := 0; x < p.Sites(); x++ {
					wTot += p.Writes(x, k)
				}
				d += wTot * p.Size(k) * p.Cost(i, sp)
				continue
			}
			// X_ik = 0: nearest-replica reads plus primary-shipped writes.
			minC := int64(-1)
			for j := 0; j < p.Sites(); j++ {
				if s.Has(j, k) {
					if c := p.Cost(i, j); minC < 0 || c < minC {
						minC = c
					}
				}
			}
			d += p.Reads(i, k)*p.Size(k)*minC + p.Writes(i, k)*p.Size(k)*p.Cost(i, sp)
		}
	}
	return d
}

// checkEq4Oracle: the production evaluator agrees with the naive oracle on
// several random schemes per instance.
func checkEq4Oracle(cx *Ctx) error {
	for trial := 0; trial < 4; trial++ {
		s := randomScheme(cx.P, cx.RNG)
		got, want := cx.schemeCost(s), naiveCost(cx.P, s)
		if got != want {
			return fmt.Errorf("trial %d: evaluator says D=%d, literal eq.4 says %d (%d replicas)",
				trial, got, want, s.TotalReplicas())
		}
	}
	return nil
}

// checkDeltaEval: along a random mutation walk, the delta evaluator's
// predicted and applied costs match a from-scratch re-evaluation at every
// step.
func checkDeltaEval(cx *Ctx) error {
	p := cx.P
	s := core.NewScheme(p)
	d := core.NewDeltaEvaluator(s)
	for step := 0; step < 40; step++ {
		i, k := cx.RNG.Intn(p.Sites()), cx.RNG.Intn(p.Objects())
		before := d.Cost()
		var predicted int64
		var ok bool
		var applyErr error
		if s.Has(i, k) {
			predicted, ok = d.RemoveDelta(i, k)
			if ok {
				applyErr = d.Remove(i, k)
			}
		} else {
			predicted, ok = d.AddDelta(i, k)
			if ok {
				applyErr = d.Add(i, k)
			}
		}
		if !ok {
			continue
		}
		if applyErr != nil {
			return fmt.Errorf("step %d: delta predicted a move the scheme rejected: %v", step, applyErr)
		}
		full := cx.schemeCost(s)
		if d.Cost() != full {
			return fmt.Errorf("step %d (site %d, object %d): delta cost %d != full re-eval %d",
				step, i, k, d.Cost(), full)
		}
		if before+predicted != full {
			return fmt.Errorf("step %d (site %d, object %d): predicted delta %d but cost moved %d→%d",
				step, i, k, predicted, before, full)
		}
	}
	if err := s.Validate(); err != nil {
		return fmt.Errorf("scheme invariants broken after mutation walk: %w", err)
	}
	return nil
}

// poolWorkerCounts are the fan-out widths the pool-parity check compares
// against serial evaluation.
var poolWorkerCounts = []int{1, 2, 3, 4, 8}

// checkPoolParity: EvalPool reductions are bit-identical to serial
// evaluation at every worker count.
func checkPoolParity(cx *Ctx) error {
	p := cx.P
	batch := make([]*bitset.Set, 6)
	serial := make([]int64, len(batch))
	ev := core.NewEvaluator(p)
	for b := range batch {
		batch[b] = randomScheme(p, cx.RNG).Bits()
		serial[b] = ev.Cost(batch[b])
	}
	for _, w := range poolWorkerCounts {
		costs := core.NewEvalPool(p, w).Costs(batch)
		for b := range costs {
			if costs[b] != serial[b] {
				return fmt.Errorf("worker count %d: chromosome %d cost %d != serial %d", w, b, costs[b], serial[b])
			}
		}
	}
	return nil
}

// soak solver budgets: small enough to keep instance throughput high, large
// enough to exercise seeding, crossover, repair and transcription.
func soakGRAParams(seed uint64) gra.Params {
	pr := gra.DefaultParams()
	pr.PopSize = 10
	pr.Generations = 8
	pr.Seed = seed
	pr.Parallelism = 1
	return pr
}

func soakAGRAParams(seed uint64) agra.Params {
	pr := agra.DefaultParams()
	pr.PopSize = 6
	pr.Generations = 6
	pr.Seed = seed
	pr.Parallelism = 1
	return pr
}

// checkSolverSanity: every solver's output is a valid scheme; SRA and GRA
// never lose to the primaries-only allocation; reported costs agree with
// the evaluator; and identical seeds reproduce identical schemes.
func checkSolverSanity(cx *Ctx) error {
	p := cx.P
	dPrime := p.DPrime()

	sraRes := sra.Run(p, sra.Options{})
	if err := sraRes.Scheme.Validate(); err != nil {
		return fmt.Errorf("SRA scheme invalid: %w", err)
	}
	if c := cx.schemeCost(sraRes.Scheme); c > dPrime {
		return fmt.Errorf("SRA cost %d exceeds no-replication D′ %d", c, dPrime)
	}
	if again := sra.Run(p, sra.Options{}); !again.Scheme.Equal(sraRes.Scheme) {
		return fmt.Errorf("SRA is not deterministic")
	}

	seed := cx.RNG.Uint64()
	graRes, err := gra.Run(p, soakGRAParams(seed))
	if err != nil {
		return fmt.Errorf("GRA: %w", err)
	}
	if err := graRes.Scheme.Validate(); err != nil {
		return fmt.Errorf("GRA scheme invalid: %w", err)
	}
	if graRes.Cost > dPrime {
		return fmt.Errorf("GRA cost %d exceeds no-replication D′ %d", graRes.Cost, dPrime)
	}
	if c := cx.schemeCost(graRes.Scheme); c != graRes.Cost {
		return fmt.Errorf("GRA reported cost %d but its scheme evaluates to %d", graRes.Cost, c)
	}
	graAgain, err := gra.Run(p, soakGRAParams(seed))
	if err != nil {
		return fmt.Errorf("GRA replay: %w", err)
	}
	if !graAgain.Scheme.Equal(graRes.Scheme) {
		return fmt.Errorf("GRA is not deterministic for seed %d", seed)
	}

	// AGRA: shift the patterns, adapt the SRA scheme, and demand a valid,
	// reproducible result under the new patterns.
	shifted, changes, err := workload.ApplyChange(p, workload.ChangeSpec{Ch: 4, ObjectShare: 0.5, ReadShare: 0.7}, cx.RNG.Uint64())
	if err != nil {
		return fmt.Errorf("pattern shift: %w", err)
	}
	if len(changes) == 0 {
		return nil // nothing shifted (tiny N); AGRA has nothing to do
	}
	changed := make([]int, len(changes))
	for i, ch := range changes {
		changed[i] = ch.Object
	}
	current, err := core.SchemeFromBits(shifted, sraRes.Scheme.Bits())
	if err != nil {
		return fmt.Errorf("rebinding current scheme: %w", err)
	}
	in := agra.Input{Problem: shifted, Current: current, Changed: changed}
	aseed := cx.RNG.Uint64()
	mini := soakGRAParams(aseed + 1)
	adapted, err := agra.Adapt(in, soakAGRAParams(aseed), mini, 3)
	if err != nil {
		return fmt.Errorf("AGRA: %w", err)
	}
	if err := adapted.Scheme.Validate(); err != nil {
		return fmt.Errorf("AGRA scheme invalid: %w", err)
	}
	if c := cx.schemeCost(adapted.Scheme); c != adapted.Cost {
		return fmt.Errorf("AGRA reported cost %d but its scheme evaluates to %d", adapted.Cost, c)
	}
	replay, err := agra.Adapt(in, soakAGRAParams(aseed), mini, 3)
	if err != nil {
		return fmt.Errorf("AGRA replay: %w", err)
	}
	if !replay.Scheme.Equal(adapted.Scheme) {
		return fmt.Errorf("AGRA is not deterministic for seed %d", aseed)
	}
	return nil
}

// checkOptimalGap (small instances): the exhaustive optimum lower-bounds
// every heuristic and the no-replication baseline.
func checkOptimalGap(cx *Ctx) error {
	p := cx.P
	opt, err := baseline.Optimal(p, smallFreeBitLimit)
	if err != nil {
		return nil // instance larger than the exhaustive gate; skip
	}
	optCost := cx.schemeCost(opt)
	if err := opt.Validate(); err != nil {
		return fmt.Errorf("optimal scheme invalid: %w", err)
	}
	if dPrime := p.DPrime(); optCost > dPrime {
		return fmt.Errorf("optimal cost %d exceeds no-replication D′ %d", optCost, dPrime)
	}
	if c := cx.schemeCost(sra.Run(p, sra.Options{}).Scheme); c < optCost {
		return fmt.Errorf("SRA cost %d beats the exhaustive optimum %d", c, optCost)
	}
	graRes, err := gra.Run(p, soakGRAParams(cx.RNG.Uint64()))
	if err != nil {
		return fmt.Errorf("GRA: %w", err)
	}
	if c := cx.schemeCost(graRes.Scheme); c < optCost {
		return fmt.Errorf("GRA cost %d beats the exhaustive optimum %d", c, optCost)
	}
	return nil
}

// checkOptimalCapacity (small instances): enlarging site capacities only
// grows the feasible set, so the exhaustive optimum can never get worse.
func checkOptimalCapacity(cx *Ctx) error {
	p := cx.P
	tight, err := baseline.Optimal(p, smallFreeBitLimit)
	if err != nil {
		return nil // instance larger than the exhaustive gate; skip
	}
	in := extract(p)
	var total int64
	for _, sz := range in.sizes {
		total += sz
	}
	for i := range in.caps {
		// Relax every site to hold a full copy of everything.
		in.caps[i] += total
	}
	relaxedP, err := in.build()
	if err != nil {
		return fmt.Errorf("relaxed instance rejected: %w", err)
	}
	relaxed, err := baseline.Optimal(relaxedP, smallFreeBitLimit)
	if err != nil {
		return fmt.Errorf("relaxed optimal: %w", err)
	}
	if cx.schemeCost(relaxed) > cx.schemeCost(tight) {
		return fmt.Errorf("capacity relaxation worsened the optimum: %d > %d", cx.schemeCost(relaxed), cx.schemeCost(tight))
	}
	return nil
}
