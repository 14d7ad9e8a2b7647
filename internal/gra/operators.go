package gra

import (
	"math/bits"
	"slices"
	"sync/atomic"

	"drp/internal/bitset"
	"drp/internal/core"
	"drp/internal/ga"
	"drp/internal/xrand"
)

// evaluator wraps the cost model with the GRA fitness rules: f = (D′−D)/D′,
// and chromosomes with negative fitness are overwritten with the initial
// (primaries-only) allocation at fitness zero. Every individual it scores
// carries its per-object costs V_k and per-site usage, and a child
// re-prices only the objects whose column differs from every parent's.
// Batched evaluations fan out across GOMAXPROCS per-goroutine
// core.Evaluators; each task touches only its own child — a mutant is bred
// in the task from its parent and its drawn flips — and its own dirty mask,
// plus its read-only parents and the primal template, so any worker count
// produces the same individuals as a serial pass. Children are bred into
// the buffers of individuals the last selection dropped.
type evaluator struct {
	p       *core.Problem
	pool    *core.EvalPool
	primal  *bitset.Set // the primaries-only chromosome, read-only
	geneLen int
	// masks holds one N-bit dirty mask per task of a batch.
	masks []*bitset.Set
	// free holds the buffers (bits, V_k, usage) of the individuals the last
	// selection dropped, which the next children are bred into.
	free []ga.Individual
	// cand, parents, spans and flips are the coordinator's per-batch
	// scratch, reused every generation: the children, the crossover
	// children's parent pairs, one crossover's spans and one mutation
	// subpopulation's drawn flip positions.
	cand    []child
	parents []ga.Individual
	spans   []ga.CrossSpan
	flips   []int
	// sel and kept are the selection's scratch: the pool indices drawn, and
	// which pool members were.
	sel  []int
	kept []bool
	// priced counts the objects the kernel priced, for tests.
	priced atomic.Int64
}

func newEvaluator(p *core.Problem) *evaluator {
	n := p.Objects()
	primal := bitset.New(p.Sites() * n)
	for k := 0; k < n; k++ {
		primal.Set(p.Primary(k)*n + k)
	}
	return &evaluator{
		p:       p,
		pool:    core.NewEvalPool(p, 0),
		primal:  primal,
		geneLen: n,
	}
}

// individual returns an individual of chromosome x with buffers of its own
// for V_k and the per-site usage.
func (ev *evaluator) individual(x *bitset.Set) ga.Individual {
	return ga.Individual{Bits: x, Objects: make([]int64, ev.geneLen), Usage: make([]int64, ev.p.Sites())}
}

// take returns the buffers to breed a child into: a dropped individual's,
// or new ones. Their contents are stale.
func (ev *evaluator) take() ga.Individual {
	if last := len(ev.free) - 1; last >= 0 {
		ind := ev.free[last]
		ev.free = ev.free[:last]
		return ind
	}
	return ev.individual(bitset.New(ev.p.Sites() * ev.geneLen))
}

// copyOf returns a copy of ind in taken buffers.
func (ev *evaluator) copyOf(ind ga.Individual) ga.Individual {
	c := ev.take()
	c.CopyFrom(ind)
	return c
}

// child is a chromosome awaiting evaluation, in buffers of its own, with
// the evaluated individuals it was bred from: two for a crossover child,
// one for a mutant, none for a seed. A crossover child arrives bred and
// with its usage; a mutant arrives unbred, with flips holding the positions
// drawn for its parent; a seed's usage is yet to be walked.
type child struct {
	ga.Individual
	parents []ga.Individual
	flips   []int
}

// evaluateWith breeds a mutant and scores one child using the given
// (worker-private) cost evaluator and dirty mask. The child inherits V_k
// from a parent whose column k it shares and prices the remaining objects
// — all of them without a parent — in one metered evaluation. It makes no
// RNG calls, which is what lets callers split variation from evaluation
// without perturbing the random streams.
func (ev *evaluator) evaluateWith(cost *core.Evaluator, c child, mask *bitset.Set) ga.Individual {
	ind := c.Individual
	switch len(c.parents) {
	case 0:
		chromosomeUsage(ev.p, ind.Bits, ind.Usage)
	case 1:
		ev.mutant(ind, c.parents[0], c.flips)
	}
	dirty := ev.inherit(ind.Objects, c, mask)
	d := cost.Reprice(ind.Bits, dirty, ind.Objects)
	if dirty == nil {
		ev.priced.Add(int64(ev.geneLen))
	} else {
		ev.priced.Add(int64(dirty.Count()))
	}
	dPrime := ev.p.DPrime()
	f := 0.0
	if dPrime > 0 {
		f = float64(dPrime-d) / float64(dPrime)
	}
	if f < 0 {
		// Rare: a scheme worse than no replication. Reset to the initial
		// allocation, per the paper.
		ind.Bits.CopyFrom(ev.primal)
		for k := range ind.Objects {
			ind.Objects[k] = ev.p.VPrime(k)
		}
		chromosomeUsage(ev.p, ind.Bits, ind.Usage)
		d = dPrime
		f = 0
	}
	ind.Cost, ind.Fitness = d, f
	return ind
}

// inherit copies into v the V_k of every object whose column — its bits at
// all M sites — the child shares with a parent, and returns the N-bit mask
// of the objects it shares with none: the ones left to price. It takes the
// first parent's whole vector, then narrows the objects that differ from
// it against each further parent, 64 at a time. Without parents it returns
// nil, every object. dirty is scratch; the result is dirty.
func (ev *evaluator) inherit(v []int64, c child, dirty *bitset.Set) *bitset.Set {
	if len(c.parents) == 0 {
		return nil
	}
	n := ev.geneLen
	foldDiff(dirty, c.Bits, c.parents[0].Bits, n)
	copy(v, c.parents[0].Objects)
	for _, par := range c.parents[1:] {
		for j := 0; j < n; j += 64 {
			d := dirty.Word(j)
			if d == 0 {
				continue
			}
			shared := d &^ diffWord(c.Bits, par.Bits, j, n)
			for w := shared; w != 0; w &= w - 1 {
				k := j + bits.TrailingZeros64(w)
				v[k] = par.Objects[k]
			}
			dirty.SetWord(j, d&^shared)
		}
	}
	return dirty
}

// foldDiff sets bit k of the N-bit mask for every object k whose column
// differs between the site-major chromosomes a and b (genes of n bits), and
// clears the others: M·⌈N/64⌉ word reads.
func foldDiff(mask, a, b *bitset.Set, n int) {
	for j := 0; j < n; j += 64 {
		mask.SetWord(j, diffWord(a, b, j, n))
	}
}

// diffWord returns, in bit k−j, whether the columns k ∈ [j, j+64) differ
// between a and b at some site: the OR of a ⊕ b over every gene's 64-bit
// window at j. In a gene's last window, the bits past N are the next
// gene's; SetWord's clip drops them from the mask and ANDing with a mask
// word drops them from the result.
func diffWord(a, b *bitset.Set, j, n int) uint64 {
	var x uint64
	for pos := j; pos < a.Len(); pos += n {
		x |= a.Word(pos) ^ b.Word(pos)
	}
	return x
}

// evaluateAll scores a batch of children across the worker pool and
// appends the individuals to dst in input order.
func (ev *evaluator) evaluateAll(dst []ga.Individual, cand []child) []ga.Individual {
	for len(ev.masks) < len(cand) {
		ev.masks = append(ev.masks, bitset.New(ev.geneLen))
	}
	from := len(dst)
	dst = slices.Grow(dst, len(cand))[:from+len(cand)]
	out := dst[from:]
	ev.pool.Each(len(cand), func(cost *core.Evaluator, i int) {
		out[i] = ev.evaluateWith(cost, cand[i], ev.masks[i])
	})
	return dst
}

// geneUsage returns the storage consumed by gene (site) g of the chromosome.
func (ev *evaluator) geneUsage(x *bitset.Set, g int) int64 {
	n := ev.geneLen
	var used int64
	for pos := x.NextSet(g * n); pos >= 0 && pos < (g+1)*n; pos = x.NextSet(pos + 1) {
		used += ev.p.Size(pos - g*n)
	}
	return used
}

// crossoverSubpop appends the λ/2 crossover offspring to dst: parents are
// paired at random; each pair is crossed with probability µc (otherwise
// copied), and cut-point genes are repaired to validity. All variation runs
// on the coordinator; the offspring are then batch-evaluated across the
// pool.
func (ev *evaluator) crossoverSubpop(dst, pop []ga.Individual, params Params, rng *xrand.Source) []ga.Individual {
	order := rng.Perm(len(pop))
	cand := ev.cand[:0]
	// Four parents a pair, in one slab that never grows mid-loop.
	parents := slices.Grow(ev.parents[:0], 2*len(pop))
	for idx := 0; idx+1 < len(order); idx += 2 {
		pa, pb := pop[order[idx]], pop[order[idx+1]]
		a, b := ev.copyOf(pa), ev.copyOf(pb)
		if rng.Bool(params.CrossoverRate) {
			ev.spans = ga.TwoPoint(ev.spans[:0], a.Bits, b.Bits, rng)
			ev.repairCrossover(a, b, ev.spans)
		}
		parents = append(parents, pa, pb, pb, pa)
		at := len(parents) - 4
		cand = append(cand,
			child{Individual: a, parents: parents[at : at+2]},
			child{Individual: b, parents: parents[at+2 : at+4]})
	}
	ev.cand, ev.parents = cand, parents
	dst = ev.evaluateAll(dst, cand)
	if len(order)%2 == 1 {
		// Odd population: the unpaired parent passes through unchanged.
		dst = append(dst, ev.copyOf(pop[order[len(order)-1]]))
	}
	return dst
}

// repairCrossover restores gene validity after a two-point crossover and
// brings the children's usage, copied from their own parents, up to date.
// A gene wholly inside a swapped span came whole from the other parent, and
// so does its usage. Only the genes containing cut points can be invalid;
// their usage is walked, and for each such gene that is invalid, the
// uncrossed remainder of the gene is swapped too, after which the gene —
// and its usage — comes whole from one (valid) parent.
func (ev *evaluator) repairCrossover(a, b ga.Individual, spans []ga.CrossSpan) {
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
		for g := (sp.From + n - 1) / n; (g+1)*n <= sp.To; g++ {
			a.Usage[g], b.Usage[g] = b.Usage[g], a.Usage[g]
		}
		if sp.From%n != 0 {
			addGene(sp.From / n)
		}
		if sp.To%n != 0 {
			addGene(sp.To / n)
		}
	}
	for _, g := range seen[:cnt] {
		ua, ub := ev.geneUsage(a.Bits, g), ev.geneUsage(b.Bits, g)
		if capacity := ev.p.Capacity(g); ua <= capacity && ub <= capacity {
			a.Usage[g], b.Usage[g] = ua, ub
			continue
		}
		// The cut gene's usage is still its own parent's.
		swapGeneComplement(a.Bits, b.Bits, g, n, spans)
		a.Usage[g], b.Usage[g] = b.Usage[g], a.Usage[g]
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

// mutationSubpop appends the λ/2 mutation offspring to dst: the
// coordinator draws every bit flip (probability µm per bit) for each
// parent, and the pool breeds and evaluates the mutants.
func (ev *evaluator) mutationSubpop(dst, pop []ga.Individual, params Params, rng *xrand.Source) []ga.Individual {
	flips, cand := ev.flips[:0], ev.cand[:0]
	for idx := range pop {
		from := len(flips)
		ga.MutateBits(pop[idx].Bits.Len(), params.MutationRate, rng, func(pos int) { flips = append(flips, pos) })
		// A later append may move the slab; this mutant keeps its own
		// positions either way.
		mine := flips[from:len(flips):len(flips)]
		cand = append(cand, child{Individual: ev.take(), parents: pop[idx : idx+1], flips: mine})
	}
	ev.flips, ev.cand = flips, cand
	return ev.evaluateAll(dst, cand)
}

// mutant breeds ind from parent with the bits at flips flipped in order,
// skipping a flip that would drop a primary copy or overflow a site (the
// paper's constraint check). Its usage starts as the parent's and follows
// each flip it applies.
func (ev *evaluator) mutant(ind, parent ga.Individual, flips []int) {
	p := ev.p
	n := ev.geneLen
	ind.Bits.CopyFrom(parent.Bits)
	copy(ind.Usage, parent.Usage)
	usage := ind.Usage
	for _, pos := range flips {
		site, obj := pos/n, pos%n
		if ind.Bits.Test(pos) {
			if p.Primary(obj) != site { // primary-copy constraint
				ind.Bits.Clear(pos)
				usage[site] -= p.Size(obj)
			}
		} else if usage[site]+p.Size(obj) <= p.Capacity(site) { // storage constraint
			ind.Bits.Set(pos)
			usage[site] += p.Size(obj)
		}
	}
}

// chromosomeUsage writes the per-site storage usage of a chromosome into
// usage: one step per set bit. Only seeds and reset individuals need it;
// every other individual carries its usage from its parents.
func chromosomeUsage(p *core.Problem, x *bitset.Set, usage []int64) {
	n := p.Objects()
	clear(usage)
	for pos := x.NextSet(0); pos >= 0; pos = x.NextSet(pos + 1) {
		usage[pos/n] += p.Size(pos % n)
	}
}
