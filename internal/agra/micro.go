// Package agra implements the Adaptive Genetic Replication Algorithm of
// Section 5. When an object's read/write pattern shifts beyond a threshold,
// a micro-GA over M-bit chromosomes (one bit per site) searches for a good
// replication scheme for that object alone, ignoring the storage constraint
// (the Knapsack component of the DRP). The winning schemes are then
// *transcribed* into a GRA population — capacity violations repaired with
// the rapid replica-benefit estimator E (eq. 6), the paper's one repair
// rule — and either realised directly or polished by a few generations of
// mini-GRA.
package agra

import (
	"fmt"
	"time"

	"drp/internal/bitset"
	"drp/internal/core"
	"drp/internal/ga"
	"drp/internal/solver"
	"drp/internal/xrand"
)

// Params are the micro-GA control parameters. The paper keeps them small —
// Ap=10, Ag=50, single-point crossover at 0.8, mutation at 0.01 — because
// the algorithm must run online.
type Params struct {
	PopSize       int     // Ap
	Generations   int     // Ag
	CrossoverRate float64 // constant 0.8 in the paper
	MutationRate  float64 // constant 0.01 in the paper
	EliteEvery    int     // elite re-injection period (as in GRA)
	Seed          uint64

	// Parallelism caps how many per-object micro-GAs Adapt runs
	// concurrently. The micro-GAs are independent by construction (each
	// owns an RNG split off the coordinator stream before the fan-out),
	// so results are bit-identical at any setting. 0 means GOMAXPROCS;
	// 1 runs fully serial.
	Parallelism int
}

// DefaultParams returns the paper's micro-GA parameters.
func DefaultParams() Params {
	return Params{
		PopSize:       10,
		Generations:   50,
		CrossoverRate: 0.8,
		MutationRate:  0.01,
		EliteEvery:    5,
	}
}

func (pr Params) validate() error {
	switch {
	case pr.PopSize < 2:
		return fmt.Errorf("agra: population size %d < 2", pr.PopSize)
	case pr.Generations < 0:
		return fmt.Errorf("agra: negative generation count %d", pr.Generations)
	case pr.CrossoverRate < 0 || pr.CrossoverRate > 1:
		return fmt.Errorf("agra: crossover rate %v outside [0,1]", pr.CrossoverRate)
	case pr.MutationRate < 0 || pr.MutationRate > 1:
		return fmt.Errorf("agra: mutation rate %v outside [0,1]", pr.MutationRate)
	case pr.EliteEvery < 1:
		return fmt.Errorf("agra: elite period %d < 1", pr.EliteEvery)
	case pr.Parallelism < 0:
		return fmt.Errorf("agra: negative parallelism %d", pr.Parallelism)
	}
	return nil
}

// ObjectResult is the micro-GA outcome for one object.
type ObjectResult struct {
	Object int
	// Best is the winning unconstrained replication scheme R_k (site list,
	// always containing the primary).
	Best []int
	// Fitness is fA = (V′−V_k)/V′ of Best.
	Fitness float64
	// Population holds the final micro-GA population as M-bit chromosomes;
	// transcription seeds half the GRA population from it.
	Population []*bitset.Set
	// Evaluations counts V_k evaluations.
	Evaluations int
	Elapsed     time.Duration
	// Generations is the number of generations actually completed, and
	// Stopped why the micro-GA ended — under Adapt's shared anytime
	// controls a micro-GA may stop early at a generation boundary.
	Generations int
	Stopped     solver.StopReason
}

// runObject evolves a replication scheme for object k against problem p
// (which carries the *new* read/write patterns).
//
// Seeding follows the paper: half the population is random; the other half
// comes from the last static GRA population (column k of its chromosomes),
// with the current network scheme of k always present, standing in for the
// highest-fitness GRA solution. graPop may be nil.
//
// The controller is the caller's: Adapt hands every micro-GA the same
// one, so they share a single evaluation meter (and hence one budget) and
// each checks the shared controls at its own generation boundaries. The
// controller's Check/Charge/Observe are goroutine-safe, so the fan-out can
// run micro-GAs concurrently.
func runObject(p *core.Problem, k int, current []int, graPop []*bitset.Set, params Params, rng *xrand.Source, c *solver.Controller) (*ObjectResult, error) {
	if err := params.validate(); err != nil {
		return nil, err
	}
	if k < 0 || k >= p.Objects() {
		return nil, fmt.Errorf("agra: object %d out of range", k)
	}
	start := time.Now()
	m := p.Sites()
	sp := p.Primary(k)
	ev := &objectEval{p: p, k: k, cost: core.NewEvaluator(p)}
	ev.cost.SetMeter(c.Meter())

	// Seed population.
	pop := make([]ga.Individual, 0, params.PopSize)
	cur := bitset.New(m)
	cur.Set(sp)
	for _, site := range current {
		if site >= 0 && site < m {
			cur.Set(site)
		}
	}
	pop = append(pop, ev.evaluate(cur))
	for c := 1; c < params.PopSize; c++ {
		bits := bitset.New(m)
		if c < params.PopSize/2 && c-1 < len(graPop) {
			// Column k of a stored GRA chromosome.
			n := p.Objects()
			for i := 0; i < m; i++ {
				if graPop[c-1].Test(i*n + k) {
					bits.Set(i)
				}
			}
		} else {
			for i := 0; i < m; i++ {
				if rng.Bool(0.5) {
					bits.Set(i)
				}
			}
		}
		bits.Set(sp)
		pop = append(pop, ev.evaluate(bits))
	}

	elite := pop[ga.Best(pop)].Clone()
	stop := solver.StopCompleted
	lastGen := 0
	for gen := 1; gen <= params.Generations; gen++ {
		if reason, halt := c.Check(); halt {
			stop = reason
			break
		}
		// Regular sampling space: parents are selected, then crossover and
		// mutation transform the selected set in place; unselected parents
		// do not survive.
		next := ga.StochasticRemainder(pop, params.PopSize, rng)
		order := rng.Perm(len(next))
		for idx := 0; idx+1 < len(order); idx += 2 {
			if rng.Bool(params.CrossoverRate) {
				ga.OnePoint(next[order[idx]].Bits, next[order[idx+1]].Bits, rng)
			}
		}
		for i := range next {
			bits := next[i].Bits
			ga.MutateBits(m, params.MutationRate, rng, func(pos int) {
				if pos == sp {
					return // primary constraint
				}
				bits.Flip(pos)
			})
			// Crossover cannot clear the primary bit (both parents carry
			// it) and mutation skips it, so no repair pass is needed.
			next[i] = ev.evaluate(bits)
		}
		pop = next
		if b := ga.Best(pop); pop[b].Fitness > elite.Fitness {
			elite = pop[b].Clone()
		}
		if gen%params.EliteEvery == 0 {
			pop[ga.Worst(pop)] = elite.Clone()
		}
		lastGen = gen
		c.Observe(gen, elite.Fitness, ga.MeanFitness(pop), elite.Cost)
	}

	res := &ObjectResult{
		Object:      k,
		Fitness:     elite.Fitness,
		Evaluations: ev.evals,
		Elapsed:     time.Since(start),
		Generations: lastGen,
		Stopped:     stop,
	}
	res.Best = sites(elite.Bits)
	res.Population = make([]*bitset.Set, len(pop))
	for i := range pop {
		res.Population[i] = pop[i].Bits.Clone()
	}
	return res, nil
}

// objectEval computes fA = (V′ − V_k)/V′ for M-bit chromosomes.
type objectEval struct {
	p     *core.Problem
	k     int
	cost  *core.Evaluator
	repl  []int32
	evals int
}

func (ev *objectEval) evaluate(bits *bitset.Set) ga.Individual {
	ev.evals++
	ev.repl = ev.repl[:0]
	for i := bits.NextSet(0); i >= 0; i = bits.NextSet(i + 1) {
		ev.repl = append(ev.repl, int32(i))
	}
	v := ev.cost.ObjectCost(ev.k, ev.repl)
	vPrime := ev.p.VPrime(ev.k)
	f := 0.0
	if vPrime > 0 {
		f = float64(vPrime-v) / float64(vPrime)
	}
	if f < 0 {
		// Worse than primary-only: reset to the primary-only scheme.
		bits.Reset()
		bits.Set(ev.p.Primary(ev.k))
		v = vPrime
		f = 0
	}
	return ga.Individual{Bits: bits, Cost: v, Fitness: f}
}

func sites(bits *bitset.Set) []int {
	var out []int
	for i := bits.NextSet(0); i >= 0; i = bits.NextSet(i + 1) {
		out = append(out, i)
	}
	return out
}
