package agra

import (
	"fmt"
	"time"

	"drp/internal/bitset"
	"drp/internal/core"
	"drp/internal/gra"
	"drp/internal/parallel"
	"drp/internal/solver"
	"drp/internal/xrand"
)

// Input bundles everything the adaptive pipeline needs for one
// re-optimisation event.
type Input struct {
	// Problem carries the NEW read/write patterns (same sites, objects,
	// sizes, capacities, primaries as when Current was computed).
	Problem *core.Problem
	// Current is the replication scheme the network is running right now.
	Current *core.Scheme
	// GRAPopulation is the final population of the last static GRA run, if
	// one is retained; it seeds both the micro-GAs and the transcription
	// targets. May be nil.
	GRAPopulation []*bitset.Set
	// Changed lists the objects whose pattern shifted beyond the threshold.
	Changed []int
}

// Result is the outcome of an adaptation.
type Result struct {
	// Scheme is the adapted replication scheme, and Cost/Savings its NTC
	// under the new patterns.
	Scheme  *core.Scheme
	Cost    int64
	Savings float64
	// Objects holds the per-object micro-GA results.
	Objects []ObjectResult
	// Population is the transcribed (and possibly mini-GRA-evolved)
	// population, retained for the next adaptation round.
	Population []*bitset.Set
	// MicroElapsed and MiniElapsed split the runtime between the per-object
	// micro-GAs and everything after them (transcription, repair and the
	// mini-GRA polish or direct realisation). All three durations come from
	// the one controller clock started at the Adapt entry point, so
	// Elapsed == MicroElapsed + MiniElapsed exactly and Elapsed mirrors
	// Stats.Elapsed.
	MicroElapsed time.Duration
	MiniElapsed  time.Duration
	Elapsed      time.Duration
	// Stats is the solver-runtime accounting: Evaluations counts V_k and
	// full-scheme cost evaluations across the micro-GAs, the transcription
	// realisation and the mini-GRA (all charged to one shared meter, which
	// is what makes the budget a single pool); Iterations sums completed
	// micro-GA generations plus mini-GRA generations; Stopped tells whether
	// the pipeline was interrupted. An interrupted adaptation still returns
	// a valid scheme — the micro results computed so far are transcribed
	// and the best transcription is realised directly, skipping the polish.
	Stats solver.Stats
}

// validate rejects input whose shapes disagree with the problem: a current
// scheme of another size, a GRA chromosome that is not M·N bits, a changed
// object out of range.
func (in Input) validate() error {
	if in.Problem == nil || in.Current == nil {
		return fmt.Errorf("agra: nil problem or current scheme")
	}
	p := in.Problem
	m, n := p.Sites(), p.Objects()
	if cp := in.Current.Problem(); cp.Sites() != m || cp.Objects() != n {
		return fmt.Errorf("agra: current scheme is %d sites × %d objects, problem %d × %d", cp.Sites(), cp.Objects(), m, n)
	}
	for i, bits := range in.GRAPopulation {
		if bits.Len() != m*n {
			return fmt.Errorf("agra: GRA chromosome %d has %d bits, want %d", i, bits.Len(), m*n)
		}
	}
	for _, k := range in.Changed {
		if k < 0 || k >= n {
			return fmt.Errorf("agra: object %d out of range", k)
		}
	}
	return nil
}

// Adapt runs the full AGRA pipeline: one micro-GA per changed object, then
// transcription of the resulting per-object schemes into a GRA population
// with E-estimator capacity repair, then — if miniGenerations > 0 — a
// mini-GRA polish. miniParams configures the mini-GRA (population size also
// sets the transcription population size); the paper uses the static GRA
// parameters with 5–10 generations.
func Adapt(in Input, params Params, miniParams gra.Params, miniGenerations int) (*Result, error) {
	return AdaptWith(in, params, miniParams, miniGenerations, solver.Run{})
}

// AdaptWith runs the AGRA pipeline under anytime controls. All micro-GAs
// share the controller's single evaluation meter — so a budget bounds the
// whole fan-out, not each object — and each checks cancellation and
// deadlines at its own generation boundaries. If the controls trip, the
// per-object results computed so far are still transcribed and the best
// transcription realised directly (the polish is skipped), so an
// interrupted adaptation always returns a valid scheme; otherwise the
// mini-GRA inherits the remaining deadline and budget. Uninterrupted runs
// are bit-identical to Adapt at every GOMAXPROCS setting. Under a budget
// the micro-GAs run one after another in input order: were they concurrent,
// which of them had passed their last boundary when the shared meter ran
// out would vary with scheduling. Budgeted runs are therefore reproducible
// at any GOMAXPROCS; cancelled and timed-out ones inherently are not.
// The observer sees the micro-GAs' progress after the fan-out, object by
// object in input order, with the evaluation counts a serial run reports,
// so an uninterrupted run's progress stream is the same at every
// GOMAXPROCS too.
func AdaptWith(in Input, params Params, miniParams gra.Params, miniGenerations int, run solver.Run) (*Result, error) {
	if err := params.validate(); err != nil {
		return nil, err
	}
	if err := in.validate(); err != nil {
		return nil, err
	}
	if miniParams.PopSize < 2 {
		return nil, fmt.Errorf("agra: mini-GRA population size %d < 2", miniParams.PopSize)
	}
	c := solver.Start("agra", run)
	rng := xrand.New(params.Seed)
	p := in.Problem

	res := &Result{}
	// The micro-GAs are independent by construction, so they fan out
	// across GOMAXPROCS workers (one under a budget, see the doc comment
	// above). Every RNG fork happens here on
	// the coordinator, in input order, before any goroutine starts; each
	// worker reuses one microGA (evaluator, population slabs, memo) across
	// its objects, reads the shared problem and GRA population (both
	// immutable during the fan-out) and writes its result by index —
	// bit-identical to the serial loop.
	type microTask struct {
		current []int
		rng     *xrand.Source
	}
	tasks := make([]microTask, len(in.Changed))
	for i, k := range in.Changed {
		tasks[i] = microTask{current: in.Current.Replicators(k), rng: rng.Split()}
	}
	res.Objects = make([]ObjectResult, len(tasks))
	workers := parallel.Workers(0)
	if run.Budget > 0 {
		workers = 1
	}
	micro := make([]*microGA, workers)
	evals := int(c.Meter().Load())
	parallel.ForWorker(len(tasks), workers, func(w, i int) {
		if micro[w] == nil {
			micro[w] = newMicroGA(p, params, c)
			micro[w].record = run.Observer != nil
		}
		res.Objects[i] = micro[w].runObject(in.Changed[i], tasks[i].current, in.GRAPopulation, tasks[i].rng)
	})
	// Replay the recorded progress as a serial run emits it: each object's
	// events count the evaluations of the objects before it.
	iterations := 0
	for _, or := range res.Objects {
		for _, pr := range or.progress {
			pr.Algorithm = "agra"
			pr.Evaluations += evals
			run.Observer.Progress(pr)
		}
		evals += or.Evaluations
		iterations += or.Generations
	}
	res.MicroElapsed = c.Elapsed()

	pop := transcribe(p, in, res.Objects, miniParams.PopSize, rng)

	stop, halted := c.Check()
	if miniGenerations > 0 && !halted {
		mp := miniParams
		mp.Generations = miniGenerations
		mp.Seed = rng.Uint64()
		graRes, err := gra.ContinueWith(p, mp, pop, c.Sub())
		if err != nil {
			return nil, fmt.Errorf("agra: mini-GRA: %w", err)
		}
		stop = c.Absorb(graRes.Stats)
		iterations += graRes.Stats.Iterations
		res.Scheme = graRes.Scheme
		res.Cost = graRes.Cost
		res.Population = graRes.Population
	} else {
		// Option (a): realise the best transcribed chromosome directly —
		// also the graceful-degradation path when the controls tripped
		// before (or during) the fan-out.
		best, bestCost := pickBest(p, pop, c)
		scheme, err := core.SchemeFromBits(p, best)
		if err != nil {
			return nil, fmt.Errorf("agra: transcribed chromosome invalid: %w", err)
		}
		res.Scheme = scheme
		res.Cost = bestCost
		res.Population = pop
	}
	res.Savings = p.Savings(res.Cost)
	res.Stats = c.Finish(iterations, stop)
	res.Elapsed = res.Stats.Elapsed
	res.MiniElapsed = res.Elapsed - res.MicroElapsed
	return res, nil
}

// transcribe builds the popSize-chromosome GRA population: the base is the
// stored GRA population (or perturbations of the current scheme), with
// chromosome 0 always the current network distribution (the elite). For
// every adapted object, the best R_k overwrites the object's column in the
// first half (including the elite) while random members of the micro-GA's
// final population overwrite the second half. Capacity violations are
// repaired by deallocating the lowest-E replicas at the violating site.
func transcribe(p *core.Problem, in Input, objs []ObjectResult, popSize int, rng *xrand.Source) []*bitset.Set {
	// E's numerator depends on the site and the object only: evaluate it
	// once per pair, for every repair of every chromosome.
	m, n := p.Sites(), p.Objects()
	num := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for k := 0; k < n; k++ {
			num[i*n+k] = p.EstimateNumerator(i, k)
		}
	}
	pop := make([]*chromosome, 0, popSize)
	pop = append(pop, newChromosome(p, num, in.Current.Bits()))
	for c := 1; c < popSize; c++ {
		var bits *bitset.Set
		if c-1 < len(in.GRAPopulation) {
			bits = in.GRAPopulation[c-1].Clone()
		} else {
			s := in.Current.Clone()
			gra.Perturb(s, 0.25, rng)
			bits = s.Bits()
		}
		pop = append(pop, newChromosome(p, num, bits))
	}

	half := popSize / 2
	if half < 1 {
		half = 1
	}
	best := bitset.New(m)
	for _, or := range objs {
		best.Reset()
		for _, i := range or.Best {
			best.Set(i)
		}
		for c, ch := range pop {
			repl := best
			if c >= half && len(or.Population) > 0 {
				repl = or.Population[rng.Intn(len(or.Population))]
			}
			ch.setColumn(or.Object, repl)
			ch.repair(rng)
		}
	}

	out := make([]*bitset.Set, len(pop))
	for i, ch := range pop {
		out[i] = ch.bits
	}
	return out
}

func pickBest(p *core.Problem, pop []*bitset.Set, c *solver.Controller) (*bitset.Set, int64) {
	ev := core.NewEvaluator(p)
	ev.SetMeter(c.Meter())
	var best *bitset.Set
	var bestCost int64
	for _, bits := range pop {
		cost := ev.Cost(bits)
		if best == nil || cost < bestCost {
			best = bits
			bestCost = cost
		}
	}
	return best, bestCost
}

// chromosome tracks a full M×N placement with per-site usage and per-object
// replica degree, so transcription and E-repair stay cheap. num holds E's
// numerator per (site, object), site-major, shared by the population.
type chromosome struct {
	p      *core.Problem
	num    []float64
	bits   *bitset.Set
	usage  []int64
	degree []int
}

func newChromosome(p *core.Problem, num []float64, bits *bitset.Set) *chromosome {
	ch := &chromosome{
		p:      p,
		num:    num,
		bits:   bits,
		usage:  make([]int64, p.Sites()),
		degree: make([]int, p.Objects()),
	}
	n := p.Objects()
	for pos := bits.NextSet(0); pos >= 0; pos = bits.NextSet(pos + 1) {
		ch.usage[pos/n] += p.Size(pos % n)
		ch.degree[pos%n]++
	}
	return ch
}

// setColumn rewrites object k's replicator set to the sites set in the
// M-bit repl, keeping the primary bit.
func (ch *chromosome) setColumn(k int, repl *bitset.Set) {
	p := ch.p
	n := p.Objects()
	for i := 0; i < p.Sites(); i++ {
		pos := i*n + k
		want := repl.Test(i) || i == p.Primary(k)
		has := ch.bits.Test(pos)
		switch {
		case want && !has:
			ch.bits.Set(pos)
			ch.usage[i] += p.Size(k)
			ch.degree[k]++
		case !want && has:
			ch.bits.Clear(pos)
			ch.usage[i] -= p.Size(k)
			ch.degree[k]--
		}
	}
}

// repair deallocates replicas at over-capacity sites, lowest estimated
// benefit E (eq. 6) first. Primaries are never touched. rng breaks exact
// ties.
func (ch *chromosome) repair(rng *xrand.Source) {
	p := ch.p
	for i := 0; i < p.Sites(); i++ {
		for ch.usage[i] > p.Capacity(i) {
			victim := ch.pickVictim(i, rng)
			if victim < 0 {
				// Only primaries remain; problem construction guarantees
				// they fit, so this indicates an infeasible instance. Leave
				// as-is; the caller's SchemeFromBits will reject it loudly.
				return
			}
			ch.bits.Clear(i*p.Objects() + victim)
			ch.usage[i] -= p.Size(victim)
			ch.degree[victim]--
		}
	}
}

// pickVictim selects the replica to evict from site i — the one with the
// lowest replica benefit estimate — or -1 if only primaries remain.
func (ch *chromosome) pickVictim(i int, rng *xrand.Source) int {
	p := ch.p
	n := p.Objects()
	victim := -1
	var victimScore float64
	for pos := ch.bits.NextSet(i * n); pos >= 0 && pos < (i+1)*n; pos = ch.bits.NextSet(pos + 1) {
		k := pos - i*n
		if p.Primary(k) == i {
			continue
		}
		score := ch.num[pos] / p.EstimateDenominator(i, ch.degree[k])
		if victim < 0 || score < victimScore || (score == victimScore && rng.Bool(0.5)) {
			victim = k
			victimScore = score
		}
	}
	return victim
}
