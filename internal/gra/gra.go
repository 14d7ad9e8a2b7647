// Package gra implements the Genetic Replication Algorithm of Section 4.
//
// A chromosome is the site-major M·N bit matrix of a replication scheme: M
// genes (one per site) of N bits (one per object). The initial population
// is seeded by SRA runs with randomised site orders, half of it perturbed
// on a quarter of its bits; fitness is the normalised NTC saving
// f = (D′ − D)/D′; selection is stochastic-remainder over a (µ+λ) pool of
// parents plus a crossover subpopulation plus a mutation subpopulation;
// elitism re-injects the best-so-far chromosome every few generations.
// Two-point crossover can only invalidate the genes containing the cut
// points, and validity is restored by swapping the uncrossed remainder of
// those genes (after which each gene comes whole from one valid parent).
// Every evaluated individual carries its per-object costs V_k (eq. 4 is
// their sum) and its per-site storage usage: a child copies V_k of each
// object whose column — its bits at all M sites — it shares with a parent,
// and re-prices only the objects whose column matches neither; it checks
// capacity from its parents' usage, updated by the flips and cut genes it
// changed. The columns that differ are found 64 at a time, so a child's
// bookkeeping costs M·⌈N/64⌉ words plus the bits that differ. Seeds are
// priced and walked in full. Selection moves the chosen individuals into
// the next generation without cloning, and the next children are bred into
// the buffers of those it dropped.
package gra

import (
	"fmt"
	"slices"
	"time"

	"drp/internal/bitset"
	"drp/internal/core"
	"drp/internal/ga"
	"drp/internal/solver"
	"drp/internal/sra"
	"drp/internal/xrand"
)

// Params are the GRA control parameters. The paper fixes Np=50, Ng=80,
// µc=0.9, µm=0.01 after tuning, with the elite copied back every 5
// generations. The operators themselves are not parameters: seeding is
// always SRA-based, selection (µ+λ) stochastic remainder and crossover
// two-point with gene repair, as in the paper.
type Params struct {
	PopSize       int     // Np
	Generations   int     // Ng
	CrossoverRate float64 // µc
	MutationRate  float64 // µm
	EliteEvery    int     // elite re-injection period, in generations
	Seed          uint64  // RNG seed; identical seeds reproduce runs exactly
}

// DefaultParams returns the paper's tuned parameters.
func DefaultParams() Params {
	return Params{
		PopSize:       50,
		Generations:   80,
		CrossoverRate: 0.9,
		MutationRate:  0.01,
		EliteEvery:    5,
	}
}

func (pr Params) validate() error {
	switch {
	case pr.PopSize < 2:
		return fmt.Errorf("gra: population size %d < 2", pr.PopSize)
	case pr.Generations < 0:
		return fmt.Errorf("gra: negative generation count %d", pr.Generations)
	case pr.CrossoverRate < 0 || pr.CrossoverRate > 1:
		return fmt.Errorf("gra: crossover rate %v outside [0,1]", pr.CrossoverRate)
	case pr.MutationRate < 0 || pr.MutationRate > 1:
		return fmt.Errorf("gra: mutation rate %v outside [0,1]", pr.MutationRate)
	case pr.EliteEvery < 1:
		return fmt.Errorf("gra: elite period %d < 1", pr.EliteEvery)
	}
	return nil
}

// GenStats records per-generation progress.
type GenStats struct {
	Gen         int
	BestFitness float64
	MeanFitness float64
	BestCost    int64
}

// Result is the outcome of a GRA run.
type Result struct {
	// Scheme is the best replication scheme found.
	Scheme *core.Scheme
	// Cost is its NTC, and Fitness the normalised saving (D′−D)/D′.
	Cost    int64
	Fitness float64
	// History holds per-generation statistics.
	History []GenStats
	// Stats is the solver-runtime accounting: Iterations is the completed
	// generation count, Elapsed covers the whole entry point (population
	// seeding included), and Stopped tells whether the run completed or was
	// interrupted by a deadline, budget or cancellation. On interruption
	// after generation g the result is bit-identical to a Generations=g run.
	Stats solver.Stats
	// Evaluations mirrors Stats.Evaluations: cost-model evaluations, the
	// dominant work unit, counted centrally by the evaluation pool.
	Evaluations int
	// Elapsed mirrors Stats.Elapsed: the wall-clock duration including
	// seeding.
	Elapsed time.Duration
	// Population is the final population's chromosomes, exposed because
	// AGRA transcribes per-object schemes into them.
	Population []*bitset.Set
}

// Run executes GRA with the paper's SRA-based population seeding.
func Run(p *core.Problem, params Params) (*Result, error) {
	return RunWith(p, params, solver.Run{})
}

// RunWith executes GRA under the given anytime controls. Interruption is
// only checked at generation boundaries: a run cancelled (or out of time or
// budget) after generation g returns exactly what a Generations=g run
// returns, at every worker count, with Stats.Stopped recording why. Seeding
// itself is never interrupted — its time and evaluations count against the
// controls, and a run that expires during seeding stops at the gen-1
// boundary with the seeded population's best scheme.
func RunWith(p *core.Problem, params Params, run solver.Run) (*Result, error) {
	if err := params.validate(); err != nil {
		return nil, err
	}
	rng := xrand.New(params.Seed)
	c := solver.Start("gra", run)
	return evolve(newEvaluator(p), params, seedSRA(p, params.PopSize, rng), rng, c)
}

// ContinueWith executes GRA from a caller-supplied initial population (AGRA
// transcription, "Current + GRA" policies) under anytime controls (see
// RunWith for the interruption contract); AGRA uses it to hand its
// remaining deadline and budget to the mini-GRA polish. Every chromosome
// must be a valid site-major bit matrix and is checked before any work is
// done; fewer than PopSize are padded with perturbed clones, extras are
// truncated.
func ContinueWith(p *core.Problem, params Params, init []*bitset.Set, run solver.Run) (*Result, error) {
	if err := params.validate(); err != nil {
		return nil, err
	}
	if len(init) == 0 {
		return nil, fmt.Errorf("gra: empty initial population")
	}
	seeds := make([]*core.Scheme, 0, params.PopSize)
	for i, bits := range init {
		s, err := core.SchemeFromBits(p, bits)
		if err != nil {
			return nil, fmt.Errorf("gra: seed chromosome %d invalid: %w", i, err)
		}
		if len(seeds) < params.PopSize {
			seeds = append(seeds, s)
		}
	}
	rng := xrand.New(params.Seed)
	c := solver.Start("gra", run)

	for len(seeds) < params.PopSize {
		s := seeds[rng.Intn(len(seeds))].Clone()
		Perturb(s, 0.25, rng)
		seeds = append(seeds, s)
	}
	pop := make([]*bitset.Set, len(seeds))
	for i, s := range seeds {
		pop[i] = s.Bits()
	}
	return evolve(newEvaluator(p), params, pop, rng, c)
}

// seedSRA builds the paper's initial population: PopSize SRA runs with
// random site orders, the second half perturbed on a quarter of their bits
// while keeping both DRP constraints intact.
func seedSRA(p *core.Problem, popSize int, rng *xrand.Source) []*bitset.Set {
	pop := make([]*bitset.Set, popSize)
	for c := 0; c < popSize; c++ {
		res := sra.Run(p, sra.Options{RandomOrder: true, RNG: rng.Split()})
		if c >= popSize/2 {
			Perturb(res.Scheme, 0.25, rng)
		}
		pop[c] = res.Scheme.Bits()
	}
	return pop
}

// Perturb randomly toggles fraction·M·N placements of the scheme, skipping
// any toggle that would drop a primary copy or overflow a site. It provides
// the population diversity the paper injects at seeding time.
func Perturb(s *core.Scheme, fraction float64, rng *xrand.Source) {
	p := s.Problem()
	m, n := p.Sites(), p.Objects()
	toggles := int(fraction * float64(m*n))
	for t := 0; t < toggles; t++ {
		i, k := rng.Intn(m), rng.Intn(n)
		if s.Has(i, k) {
			_ = s.Remove(i, k) // ErrPrimary: keep the bit
		} else {
			_ = s.Add(i, k) // ErrCapacity: keep the bit clear
		}
	}
}

// evolve runs the generational loop over an initial population of bitsets,
// which it takes over, priced in full (seeds have no parents to inherit V_k
// from). Every random draw of variation is made on this goroutine; breeding
// the mutants from those draws and the cost evaluations fan out across ev's
// worker pool. The controller is consulted exactly once per generation, at
// the top of the loop, before any randomness is drawn — so breaking there
// leaves the run in precisely the state a shorter Generations setting would
// have produced.
func evolve(ev *evaluator, params Params, init []*bitset.Set, rng *xrand.Source, c *solver.Controller) (*Result, error) {
	p := ev.p
	ev.pool.SetMeter(c.Meter())
	res := &Result{}

	seeds := make([]child, len(init))
	for i, bits := range init {
		seeds[i] = child{Individual: ev.individual(bits)}
	}
	pop := ev.evaluateAll(nil, seeds)

	// The elite has buffers of its own, which no selection recycles.
	elite := ev.copyOf(pop[ga.Best(pop)])
	record := func(gen int) {
		mean := ga.MeanFitness(pop)
		res.History = append(res.History, GenStats{
			Gen:         gen,
			BestFitness: elite.Fitness,
			MeanFitness: mean,
			BestCost:    elite.Cost,
		})
		c.Observe(gen, elite.Fitness, mean, elite.Cost)
	}
	record(0)

	stop := solver.StopCompleted
	lastGen := 0
	var pool, spare []ga.Individual
	for gen := 1; gen <= params.Generations; gen++ {
		if reason, halt := c.Check(); halt {
			stop = reason
			break
		}
		// (µ+λ): parents and both offspring subpopulations compete for the
		// Np slots of the next generation.
		pool = append(pool[:0], pop...)
		pool = ev.crossoverSubpop(pool, pop, params, rng)
		pool = ev.mutationSubpop(pool, pop, params, rng)

		if b := ga.Best(pool); pool[b].Fitness > elite.Fitness {
			elite.CopyFrom(pool[b])
		}
		pop, spare = ev.selectNext(spare, pool, params.PopSize, rng), pop

		// Elitism with delayed re-injection to avoid premature convergence.
		if gen%params.EliteEvery == 0 {
			pop[ga.Worst(pop)].CopyFrom(elite)
		}
		record(gen)
		lastGen = gen
	}

	scheme, err := core.SchemeFromBits(p, elite.Bits)
	if err != nil {
		return nil, fmt.Errorf("gra: elite chromosome invalid: %w", err)
	}
	res.Scheme = scheme
	res.Cost = elite.Cost
	res.Fitness = elite.Fitness
	// No two members of a population share a chromosome, and the run is
	// done with them.
	res.Population = make([]*bitset.Set, len(pop))
	for i := range pop {
		res.Population[i] = pop[i].Bits
	}
	res.Stats = c.Finish(lastGen, stop)
	res.Evaluations = res.Stats.Evaluations
	res.Elapsed = res.Stats.Elapsed
	return res, nil
}

// selectNext draws count individuals from pool by stochastic remainder and
// appends them to dst[:0]. Nothing varies a selected individual in place,
// so one selected once moves over as it is; one selected again is copied
// into recycled buffers, so no two members of a population share a
// chromosome. The buffers of every member not selected go to the free list
// for the next generation's children. pool must not share buffers either.
func (ev *evaluator) selectNext(dst, pool []ga.Individual, count int, rng *xrand.Source) []ga.Individual {
	sel := ga.StochasticRemainder(ev.sel[:0], pool, count, rng)
	kept := slices.Grow(ev.kept[:0], len(pool))[:len(pool)]
	clear(kept)
	for _, j := range sel {
		kept[j] = true
	}
	for j := range pool {
		if !kept[j] {
			ev.free = append(ev.free, pool[j])
		}
	}
	clear(kept)
	dst = dst[:0]
	for _, j := range sel {
		if kept[j] {
			dst = append(dst, ev.copyOf(pool[j]))
			continue
		}
		kept[j] = true
		dst = append(dst, pool[j])
	}
	ev.sel, ev.kept = sel, kept
	return dst
}
