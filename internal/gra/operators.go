package gra

import (
	"drp/internal/bitset"
	"drp/internal/core"
	"drp/internal/ga"
	"drp/internal/xrand"
)

// evaluator wraps the cost model with the GRA fitness rules: f = (D′−D)/D′,
// and chromosomes with negative fitness are overwritten with the initial
// (primaries-only) allocation at fitness zero. Batched evaluations fan out
// across a pool of per-goroutine core.Evaluators; each task touches only
// its own chromosome (plus the read-only primal template), so any worker
// count produces the same individuals as a serial pass.
type evaluator struct {
	p       *core.Problem
	pool    *core.EvalPool
	primal  *bitset.Set // the primaries-only chromosome, read-only
	geneLen int
}

func newEvaluator(p *core.Problem, parallelism int) *evaluator {
	primal := bitset.New(p.Sites() * p.Objects())
	for k := 0; k < p.Objects(); k++ {
		primal.Set(p.Primary(k)*p.Objects() + k)
	}
	return &evaluator{
		p:       p,
		pool:    core.NewEvalPool(p, parallelism),
		primal:  primal,
		geneLen: p.Objects(),
	}
}

// evaluateWith scores one chromosome using the given (worker-private) cost
// evaluator. It makes no RNG calls, which is what lets callers split
// variation from evaluation without perturbing the random streams.
func (ev *evaluator) evaluateWith(cost *core.Evaluator, bits *bitset.Set) ga.Individual {
	d := cost.Cost(bits)
	dPrime := ev.p.DPrime()
	f := 0.0
	if dPrime > 0 {
		f = float64(dPrime-d) / float64(dPrime)
	}
	if f < 0 {
		// Rare: a scheme worse than no replication. Reset to the initial
		// allocation, per the paper.
		bits.CopyFrom(ev.primal)
		d = dPrime
		f = 0
	}
	return ga.Individual{Bits: bits, Cost: d, Fitness: f}
}

// evaluateAll scores a batch of chromosomes across the worker pool and
// returns the individuals in input order.
func (ev *evaluator) evaluateAll(cand []*bitset.Set) []ga.Individual {
	out := make([]ga.Individual, len(cand))
	ev.pool.Each(len(cand), func(cost *core.Evaluator, i int) {
		out[i] = ev.evaluateWith(cost, cand[i])
	})
	return out
}

// geneUsage returns the storage consumed by gene (site) g of the chromosome.
func (ev *evaluator) geneUsage(bits *bitset.Set, g int) int64 {
	n := ev.geneLen
	var used int64
	for pos := bits.NextSet(g * n); pos >= 0 && pos < (g+1)*n; pos = bits.NextSet(pos + 1) {
		used += ev.p.Size(pos - g*n)
	}
	return used
}

func (ev *evaluator) geneValid(bits *bitset.Set, g int) bool {
	return ev.geneUsage(bits, g) <= ev.p.Capacity(g)
}

// crossoverSubpop builds the λ/2 crossover offspring: parents are paired at
// random; each pair is crossed with probability µc (otherwise copied), and
// cut-point genes are repaired to validity. All variation runs on the
// coordinator; the offspring are then batch-evaluated across the pool.
func (ev *evaluator) crossoverSubpop(pop []ga.Individual, params Params, rng *xrand.Source) []ga.Individual {
	order := rng.Perm(len(pop))
	cand := make([]*bitset.Set, 0, len(pop))
	for idx := 0; idx+1 < len(order); idx += 2 {
		a := pop[order[idx]].Bits.Clone()
		b := pop[order[idx+1]].Bits.Clone()
		if rng.Bool(params.CrossoverRate) {
			ev.repairCrossover(a, b, ga.TwoPoint(a, b, rng))
		}
		cand = append(cand, a, b)
	}
	out := ev.evaluateAll(cand)
	if len(order)%2 == 1 {
		// Odd population: the unpaired parent passes through unchanged.
		out = append(out, pop[order[len(order)-1]].Clone())
	}
	return out
}

// repairCrossover restores gene validity after a two-point crossover. Only
// the genes containing cut points can be invalid; for each such gene that
// is, the uncrossed remainder of the gene is swapped too, after which the
// gene comes whole from one (valid) parent.
func (ev *evaluator) repairCrossover(a, b *bitset.Set, spans []ga.CrossSpan) {
	n := ev.geneLen
	seen := [4]int{-1, -1, -1, -1}
	cnt := 0
	addGene := func(g int) {
		for _, s := range seen[:cnt] {
			if s == g {
				return
			}
		}
		seen[cnt] = g
		cnt++
	}
	for _, sp := range spans {
		if sp.From >= sp.To {
			continue
		}
		if sp.From%n != 0 {
			addGene(sp.From / n)
		}
		if sp.To%n != 0 {
			addGene(sp.To / n)
		}
	}
	for _, g := range seen[:cnt] {
		if ev.geneValid(a, g) && ev.geneValid(b, g) {
			continue
		}
		swapGeneComplement(a, b, g, n, spans)
	}
}

// swapGeneComplement swaps every bit of gene g that is NOT inside one of the
// already-swapped spans, completing the gene exchange between a and b.
func swapGeneComplement(a, b *bitset.Set, g, n int, spans []ga.CrossSpan) {
	lo, hi := g*n, (g+1)*n
	cur := lo
	for _, sp := range spans { // spans are ascending and disjoint
		f, t := sp.From, sp.To
		if f < lo {
			f = lo
		}
		if t > hi {
			t = hi
		}
		if f >= t {
			continue
		}
		if cur < f {
			a.SwapRange(b, cur, f)
		}
		if t > cur {
			cur = t
		}
	}
	if cur < hi {
		a.SwapRange(b, cur, hi)
	}
}

// mutationSubpop builds the λ/2 mutation offspring: each parent is cloned
// and mutated on the coordinator, then the clones are batch-evaluated.
func (ev *evaluator) mutationSubpop(pop []ga.Individual, params Params, rng *xrand.Source) []ga.Individual {
	cand := make([]*bitset.Set, len(pop))
	for idx := range pop {
		cand[idx] = ev.mutate(pop[idx].Bits.Clone(), params, rng)
	}
	return ev.evaluateAll(cand)
}

// mutate flips every bit with probability µm in place; flips that would
// drop a primary copy or overflow a site are reverted (the paper's
// constraint check). Returns bits for chaining.
func (ev *evaluator) mutate(bits *bitset.Set, params Params, rng *xrand.Source) *bitset.Set {
	p := ev.p
	n := ev.geneLen
	var usage []int64
	ga.MutateBits(bits.Len(), params.MutationRate, rng, func(pos int) {
		if usage == nil {
			usage = chromosomeUsage(p, bits)
		}
		site, obj := pos/n, pos%n
		if bits.Test(pos) {
			if p.Primary(obj) == site {
				return // primary-copy constraint
			}
			bits.Clear(pos)
			usage[site] -= p.Size(obj)
			return
		}
		if usage[site]+p.Size(obj) > p.Capacity(site) {
			return // storage constraint
		}
		bits.Set(pos)
		usage[site] += p.Size(obj)
	})
	return bits
}

// chromosomeUsage computes per-site storage usage of a chromosome.
func chromosomeUsage(p *core.Problem, bits *bitset.Set) []int64 {
	n := p.Objects()
	usage := make([]int64, p.Sites())
	for pos := bits.NextSet(0); pos >= 0; pos = bits.NextSet(pos + 1) {
		usage[pos/n] += p.Size(pos % n)
	}
	return usage
}
