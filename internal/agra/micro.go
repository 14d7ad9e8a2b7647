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
	"slices"
	"time"

	"drp/internal/bitset"
	"drp/internal/core"
	"drp/internal/ga"
	"drp/internal/solver"
	"drp/internal/xrand"
)

// The paper's micro-GA variation rates and elite period (as in GRA),
// fixed for every run.
const (
	crossoverRate = 0.8
	mutationRate  = 0.01
	eliteEvery    = 5
)

// Params are the micro-GA control parameters. The paper keeps them small —
// Ap=10, Ag=50, with single-point crossover and mutation at the constant
// rates above — because the algorithm must run online.
type Params struct {
	PopSize     int // Ap
	Generations int // Ag
	Seed        uint64
}

// DefaultParams returns the paper's micro-GA parameters.
func DefaultParams() Params {
	return Params{PopSize: 10, Generations: 50}
}

func (pr Params) validate() error {
	switch {
	case pr.PopSize < 2:
		return fmt.Errorf("agra: population size %d < 2", pr.PopSize)
	case pr.Generations < 0:
		return fmt.Errorf("agra: negative generation count %d", pr.Generations)
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
	// pricings counts the evaluations that called ObjectCost; the rest were
	// answered by the micro-GA's memo.
	pricings int
	// progress holds one event per completed generation when the run is
	// observed, its Evaluations counting this object's evaluations only;
	// Adapt replays them.
	progress []solver.Progress
}

// microGA is one worker's micro-GA machinery, reused across the objects
// the worker is handed: an evaluator, two population slabs of Ap
// chromosomes that selection copies between, the elite's own storage and
// the pricing memo. Nothing but capacity carries from one object to the
// next, so a result does not depend on which worker computed it.
type microGA struct {
	p      *core.Problem
	params Params
	c      *solver.Controller
	// record asks for each object's per-generation progress events.
	record bool
	cost   *core.Evaluator
	// pop and next are the population slabs; a generation selects from pop
	// into next, varies next in place and swaps them. elite never aliases
	// either.
	pop, next []ga.Individual
	elite     ga.Individual
	sel       []int
	order     []int
	memo      memo
	// Per-object evaluation scratch: the chromosome as a site list and as
	// memo key words.
	repl []int32
	key  []uint64
	// The object being evolved, its primary and V′_k.
	k, sp  int
	vPrime int64
	// evals counts evaluate calls (each ticks the meter once); pricings
	// counts the memo misses, which call ObjectCost.
	evals, pricings int
}

func newMicroGA(p *core.Problem, params Params, c *solver.Controller) *microGA {
	m := p.Sites()
	mg := &microGA{
		p:      p,
		params: params,
		c:      c,
		cost:   core.NewEvaluator(p),
		pop:    make([]ga.Individual, params.PopSize),
		next:   make([]ga.Individual, params.PopSize),
		elite:  ga.Individual{Bits: bitset.New(m)},
		sel:    make([]int, 0, params.PopSize),
		order:  make([]int, params.PopSize),
		memo:   newMemo(m, params.PopSize*(params.Generations+1)),
		repl:   make([]int32, 0, m),
		key:    make([]uint64, (m+63)/64),
	}
	mg.cost.SetMeter(c.Meter())
	for i := range mg.pop {
		mg.pop[i].Bits = bitset.New(m)
		mg.next[i].Bits = bitset.New(m)
	}
	return mg
}

// runObject evolves a replication scheme for object k against problem p
// (which carries the *new* read/write patterns).
//
// Seeding follows the paper: half the population is random; the other half
// comes from the last static GRA population (column k of its chromosomes),
// with the current network scheme of k always present, standing in for the
// highest-fitness GRA solution. graPop may be nil; Adapt has checked k and
// the shape of graPop.
//
// The controller is the caller's: Adapt hands every micro-GA the same
// one, so they share a single evaluation meter (and hence one budget) and
// each checks the shared controls at its own generation boundaries. The
// controller's Check and Charge are goroutine-safe, so the fan-out can run
// micro-GAs concurrently; progress is recorded in the result, not observed.
func (mg *microGA) runObject(k int, current []int, graPop []*bitset.Set, rng *xrand.Source) ObjectResult {
	start := time.Now()
	p, params := mg.p, mg.params
	m := p.Sites()
	mg.k, mg.sp, mg.vPrime = k, p.Primary(k), p.VPrime(k)
	mg.evals, mg.pricings = 0, 0
	mg.memo.reset()

	// Seed population.
	pop := mg.pop
	cur := pop[0].Bits
	cur.Reset()
	cur.Set(mg.sp)
	for _, site := range current {
		if site >= 0 && site < m {
			cur.Set(site)
		}
	}
	mg.evaluate(&pop[0])
	for c := 1; c < params.PopSize; c++ {
		bits := pop[c].Bits
		bits.Reset()
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
		bits.Set(mg.sp)
		mg.evaluate(&pop[c])
	}

	mg.elite.CopyFrom(pop[ga.Best(pop)])
	var progress []solver.Progress
	stop := solver.StopCompleted
	lastGen := 0
	for gen := 1; gen <= params.Generations; gen++ {
		if reason, halt := mg.c.Check(); halt {
			stop = reason
			break
		}
		// Regular sampling space: parents are selected, then crossover and
		// mutation transform the selected set in place; unselected parents
		// do not survive.
		mg.sel = ga.StochasticRemainder(mg.sel[:0], pop, params.PopSize, rng)
		next := mg.next
		for i, j := range mg.sel {
			next[i].CopyFrom(pop[j])
		}
		for i := range mg.order {
			mg.order[i] = i
		}
		rng.Shuffle(mg.order)
		for idx := 0; idx+1 < len(mg.order); idx += 2 {
			if rng.Bool(crossoverRate) {
				ga.OnePoint(next[mg.order[idx]].Bits, next[mg.order[idx+1]].Bits, rng)
			}
		}
		for i := range next {
			bits := next[i].Bits
			ga.MutateBits(m, mutationRate, rng, func(pos int) {
				if pos == mg.sp {
					return // primary constraint
				}
				bits.Flip(pos)
			})
			// Crossover cannot clear the primary bit (both parents carry
			// it) and mutation skips it, so no repair pass is needed.
			mg.evaluate(&next[i])
		}
		mg.pop, mg.next = next, pop
		pop = next
		if b := ga.Best(pop); pop[b].Fitness > mg.elite.Fitness {
			mg.elite.CopyFrom(pop[b])
		}
		if gen%eliteEvery == 0 {
			pop[ga.Worst(pop)].CopyFrom(mg.elite)
		}
		lastGen = gen
		if mg.record {
			progress = append(progress, solver.Progress{
				Iteration:   gen,
				BestFitness: mg.elite.Fitness,
				MeanFitness: ga.MeanFitness(pop),
				BestCost:    mg.elite.Cost,
				Evaluations: mg.evals,
				Elapsed:     mg.c.Elapsed(),
			})
		}
	}

	res := ObjectResult{
		Object:      k,
		Best:        mg.elite.Bits.OnesInto(make([]int, 0, mg.elite.Bits.Count()), 0, m),
		Fitness:     mg.elite.Fitness,
		Population:  make([]*bitset.Set, len(pop)),
		Evaluations: mg.evals,
		Elapsed:     time.Since(start),
		Generations: lastGen,
		Stopped:     stop,
		pricings:    mg.pricings,
		progress:    progress,
	}
	for i := range pop {
		res.Population[i] = pop[i].Bits.Clone()
	}
	return res
}

// evaluate sets ind's cost and fitness fA = (V′ − V_k)/V′, resetting a
// chromosome worse than primary-only to {SP_k}. A chromosome this
// micro-GA has priced before is answered from the memo; either way the
// meter ticks once.
func (mg *microGA) evaluate(ind *ga.Individual) {
	mg.evals++
	bits := ind.Bits
	mg.repl = mg.repl[:0]
	clear(mg.key)
	for i := bits.NextSet(0); i >= 0; i = bits.NextSet(i + 1) {
		mg.repl = append(mg.repl, int32(i))
		mg.key[i/64] |= 1 << (uint(i) % 64)
	}
	s := mg.memo.find(mg.key)
	e := mg.memo.slots[s]
	if e.used {
		mg.c.Charge(1)
	} else {
		mg.pricings++
		v := mg.cost.ObjectCost(mg.k, mg.repl)
		f := 0.0
		if mg.vPrime > 0 {
			f = float64(mg.vPrime-v) / float64(mg.vPrime)
		}
		if f < 0 {
			// Worse than primary-only: reset to the primary-only scheme.
			v, f, e.reset = mg.vPrime, 0, true
		}
		e.cost, e.fitness = v, f
		mg.memo.store(s, mg.key, e)
	}
	if e.reset {
		bits.Reset()
		bits.Set(mg.sp)
	}
	ind.Cost, ind.Fitness = e.cost, e.fitness
}

// memo caches one micro-GA's pricings, keyed on the full M-bit chromosome
// (⌈M/64⌉ words, compared in full): an open-addressed table with linear
// probing, cleared per object. It stores the outcome after the
// primary-only reset, so a hit replays the reset too. With at least twice
// as many slots as a micro-GA has evaluations it never fills; a table
// capped below that stops inserting at half load.
type memo struct {
	words int
	mask  int
	keys  []uint64 // slot s's key is keys[s·words : (s+1)·words]
	slots []memoEntry
	n     int
}

type memoEntry struct {
	cost    int64
	fitness float64
	used    bool
	reset   bool
}

// maxMemoSlots caps a memo's table (2 MiB at M ≤ 64); only micro-GAs far
// beyond the paper's Ap·Ag reach it.
const maxMemoSlots = 1 << 16

func newMemo(m, evaluations int) memo {
	size := 1
	for size < 2*evaluations && size < maxMemoSlots {
		size <<= 1
	}
	words := (m + 63) / 64
	return memo{
		words: words,
		mask:  size - 1,
		keys:  make([]uint64, size*words),
		slots: make([]memoEntry, size),
	}
}

func (mm *memo) reset() {
	clear(mm.slots)
	mm.n = 0
}

// find returns the slot holding key, or the empty slot where it belongs.
func (mm *memo) find(key []uint64) int {
	h := uint64(0)
	for _, w := range key {
		h = (h ^ w) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	s := int(h) & mm.mask
	for mm.slots[s].used && !slices.Equal(mm.keys[s*mm.words:(s+1)*mm.words], key) {
		s = (s + 1) & mm.mask
	}
	return s
}

// store files e under key in s, the empty slot find returned for it.
func (mm *memo) store(s int, key []uint64, e memoEntry) {
	if 2*(mm.n+1) > len(mm.slots) {
		return
	}
	copy(mm.keys[s*mm.words:], key)
	e.used = true
	mm.slots[s] = e
	mm.n++
}
