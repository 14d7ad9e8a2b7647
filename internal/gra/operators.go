package gra

import (
	"sync"
	"sync/atomic"

	"drp/internal/bitset"
	"drp/internal/core"
	"drp/internal/ga"
	"drp/internal/xrand"
)

// evaluator wraps the cost model with the GRA fitness rules: f = (D′−D)/D′,
// and chromosomes with negative fitness are overwritten with the initial
// (primaries-only) allocation at fitness zero. Every individual it scores
// carries its per-object costs V_k, and a child re-prices only the objects
// whose column differs from every parent's. Batched evaluations fan out
// across a pool of per-goroutine core.Evaluators; each task touches only its
// own chromosome — a mutant's is bred in the task from its parent and its
// drawn flips — plus its read-only parents and the primal template, so any
// worker count produces the same individuals as a serial pass.
type evaluator struct {
	p       *core.Problem
	pool    *core.EvalPool
	primal  *bitset.Set // the primaries-only chromosome, read-only
	geneLen int
	// masks pools the N-bit scratch masks of inherit, two per evaluation.
	masks sync.Pool
	// flips is the slab of one mutation subpopulation's drawn flip
	// positions, reused every generation.
	flips []int
	// priced counts the objects the kernel priced, for tests.
	priced atomic.Int64
}

func newEvaluator(p *core.Problem, parallelism int) *evaluator {
	n := p.Objects()
	primal := bitset.New(p.Sites() * n)
	for k := 0; k < n; k++ {
		primal.Set(p.Primary(k)*n + k)
	}
	ev := &evaluator{
		p:       p,
		pool:    core.NewEvalPool(p, parallelism),
		primal:  primal,
		geneLen: n,
	}
	ev.masks.New = func() any { return &[2]*bitset.Set{bitset.New(n), bitset.New(n)} }
	return ev
}

// child is a chromosome awaiting evaluation with the evaluated individuals
// it was bred from: two for a crossover child, one for a mutant, none for a
// seed. A mutant arrives unbred: bits is nil and flips holds the positions
// drawn for its parent.
type child struct {
	bits    *bitset.Set
	parents []ga.Individual
	flips   []int
}

// evaluateWith breeds a mutant and scores one chromosome using the given
// (worker-private) cost evaluator. The child inherits V_k from a parent
// whose column k it shares and prices the remaining objects — all of them
// without a parent — in one metered evaluation. It makes no RNG calls,
// which is what lets callers split variation from evaluation without
// perturbing the random streams.
func (ev *evaluator) evaluateWith(cost *core.Evaluator, c child) ga.Individual {
	if c.bits == nil {
		c.bits = ev.mutant(c.parents[0].Bits, c.flips)
	}
	v := make([]int64, ev.geneLen)
	masks := ev.masks.Get().(*[2]*bitset.Set)
	dirty := ev.inherit(v, c, masks[0], masks[1])
	d := cost.Reprice(c.bits, dirty, v)
	if dirty == nil {
		ev.priced.Add(int64(ev.geneLen))
	} else {
		ev.priced.Add(int64(dirty.Count()))
	}
	ev.masks.Put(masks)
	dPrime := ev.p.DPrime()
	f := 0.0
	if dPrime > 0 {
		f = float64(dPrime-d) / float64(dPrime)
	}
	if f < 0 {
		// Rare: a scheme worse than no replication. Reset to the initial
		// allocation, per the paper.
		c.bits.CopyFrom(ev.primal)
		for k := range v {
			v[k] = ev.p.VPrime(k)
		}
		d = dPrime
		f = 0
	}
	return ga.Individual{Bits: c.bits, Cost: d, Fitness: f, Objects: v}
}

// inherit copies into v the V_k of every object whose column — its bits at
// all M sites — the child shares with a parent, and returns the N-bit mask
// of the objects it shares with none: the ones left to price. Without
// parents it returns nil, every object. dirty and differs are scratch
// masks; the result is dirty.
func (ev *evaluator) inherit(v []int64, c child, dirty, differs *bitset.Set) *bitset.Set {
	if len(c.parents) == 0 {
		return nil
	}
	n := ev.geneLen
	dirty.Reset()
	foldDiff(dirty, c.bits, c.parents[0].Bits, n)
	for k, vk := range c.parents[0].Objects {
		if !dirty.Test(k) {
			v[k] = vk
		}
	}
	if len(c.parents) == 1 || dirty.NextSet(0) < 0 {
		return dirty
	}
	for _, par := range c.parents[1:] {
		differs.Reset()
		foldDiff(differs, c.bits, par.Bits, n)
		for k := dirty.NextSet(0); k >= 0; k = dirty.NextSet(k + 1) {
			if !differs.Test(k) {
				v[k] = par.Objects[k]
				dirty.Clear(k)
			}
		}
	}
	return dirty
}

// foldDiff sets bit k of mask for every object k whose column differs
// between the site-major chromosomes a and b (genes of n bits).
func foldDiff(mask, a, b *bitset.Set, n int) {
	base := 0
	for pos := a.NextDiff(b, 0); pos >= 0; pos = a.NextDiff(b, pos+1) {
		for pos >= base+n {
			base += n
		}
		mask.Set(pos - base)
	}
}

// evaluateAll scores a batch of chromosomes across the worker pool and
// returns the individuals in input order.
func (ev *evaluator) evaluateAll(cand []child) []ga.Individual {
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
	cand := make([]child, 0, len(pop))
	for idx := 0; idx+1 < len(order); idx += 2 {
		pa, pb := pop[order[idx]], pop[order[idx+1]]
		a, b := pa.Bits.Clone(), pb.Bits.Clone()
		if rng.Bool(params.CrossoverRate) {
			ev.repairCrossover(a, b, ga.TwoPoint(a, b, rng))
		}
		cand = append(cand,
			child{bits: a, parents: []ga.Individual{pa, pb}},
			child{bits: b, parents: []ga.Individual{pb, pa}})
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

// mutationSubpop builds the λ/2 mutation offspring: the coordinator draws
// every bit flip (probability µm per bit) for each parent, and the pool
// breeds and evaluates the mutants.
func (ev *evaluator) mutationSubpop(pop []ga.Individual, params Params, rng *xrand.Source) []ga.Individual {
	flips, ends := ev.flips[:0], make([]int, len(pop))
	for idx := range pop {
		ga.MutateBits(pop[idx].Bits.Len(), params.MutationRate, rng, func(pos int) { flips = append(flips, pos) })
		ends[idx] = len(flips)
	}
	ev.flips = flips
	cand := make([]child, len(pop))
	from := 0
	for idx, end := range ends {
		cand[idx] = child{parents: pop[idx : idx+1], flips: flips[from:end]}
		from = end
	}
	return ev.evaluateAll(cand)
}

// mutant returns a copy of parent with the bits at flips flipped in order,
// skipping a flip that would drop a primary copy or overflow a site (the
// paper's constraint check).
func (ev *evaluator) mutant(parent *bitset.Set, flips []int) *bitset.Set {
	p := ev.p
	n := ev.geneLen
	bits := parent.Clone()
	if len(flips) == 0 {
		return bits
	}
	usage := chromosomeUsage(p, bits)
	for _, pos := range flips {
		site, obj := pos/n, pos%n
		if bits.Test(pos) {
			if p.Primary(obj) != site { // primary-copy constraint
				bits.Clear(pos)
				usage[site] -= p.Size(obj)
			}
		} else if usage[site]+p.Size(obj) <= p.Capacity(site) { // storage constraint
			bits.Set(pos)
			usage[site] += p.Size(obj)
		}
	}
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
