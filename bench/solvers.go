package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"drp/internal/agra"
	"drp/internal/core"
	"drp/internal/gra"
	"drp/internal/solver"
	"drp/internal/sparse"
	"drp/internal/sra"
	"drp/internal/workload"
)

// A solver round is one static solve followed by w.Adapts adaptations to
// the same change event, every one from the same starting scheme. The
// adaptation is the online operation (op_p50_ms); the solve is the nightly
// one (e2e.solve_s). Outputs must validate, cost no more than D′ and be
// bit-identical from round to round.

// solverRounds is the round loop both solver workloads share. round runs
// one round and returns its solve time and adaptation times; between runs
// after each measured round (setupTimer.between).
func solverRounds(w *workloadSpec, o *runOpts, res *result, round func() (time.Duration, []time.Duration, error), between func() error) error {
	m := res.Metrics
	if _, _, err := round(); err != nil { // warm-up, discarded
		return fmt.Errorf("warm-up round: %w", err)
	}
	ops := int64(1 + w.Adapts)
	res.Attempted += ops
	var roundS, solveS, adaptS, adaptP50 []float64
	for measured := time.Duration(0); !enoughRounds(o, w.Rounds, w.QuickR, len(roundS), measured); {
		t0 := time.Now()
		solve, adapts, err := round()
		if err != nil {
			return err
		}
		measured += time.Since(t0)
		res.Attempted += ops
		// round_s is the solvers' own time; copying inputs between the ops
		// and checking outputs is the benchmark's.
		total := solve
		each := make([]float64, len(adapts))
		for i, d := range adapts {
			each[i] = d.Seconds()
			total += d
		}
		roundS = append(roundS, total.Seconds())
		solveS = append(solveS, solve.Seconds())
		adaptS = append(adaptS, each...)
		adaptP50 = append(adaptP50, median(each)*1e3)
		if err := between(); err != nil {
			return err
		}
	}
	res.Rounds = len(roundS)
	m.putRounds("round_s", roundS)
	m.putRounds("op_p50_ms", adaptP50)
	m.putRounds("e2e.solve_s", solveS)
	m.putRounds("e2e.adapt_s", adaptS)
	q1, med, q3 := quartiles(roundS)
	m.put("client.round_iqr_frac", (q3-q1)/med)
	return nil
}

// setupTimer times a workload's set-up; the median of all samples is
// setup_s. first samples before the rounds, between after each measured
// round, so that setup_s sees the same seconds of the machine as round_s
// does and not only the process's first moments. --trace 1 and -quick set
// up once.
type setupTimer[T any] struct {
	o       *runOpts
	build   func() (T, error)
	discard func(T) // releases a product, outside the timed interval; may be nil
	secs    []float64
}

// one builds once, from a collected heap, and records the time.
func (s *setupTimer[T]) one() (T, error) {
	runtime.GC()
	start := time.Now()
	v, err := s.build()
	if err != nil {
		return v, fmt.Errorf("set-up: %w", err)
	}
	s.secs = append(s.secs, time.Since(start).Seconds())
	return v, nil
}

func (s *setupTimer[T]) drop(v T) {
	if s.discard != nil {
		s.discard(v)
	}
}

// first sets up at least three times, and cheap set-ups until half a second
// is spent (at most 200 times), so that a 2 ms boot is not one noisy
// sample. It returns the last product; the earlier ones are discarded.
func (s *setupTimer[T]) first() (T, error) {
	minSetups, maxSetups := 3, 200
	if s.o.mode == modeLayers || s.o.quick {
		minSetups, maxSetups = 1, 1
	}
	for i, t0 := 1, time.Now(); ; i++ {
		v, err := s.one()
		if err != nil || i >= maxSetups || i >= minSetups && time.Since(t0) > 500*time.Millisecond {
			return v, err
		}
		s.drop(v)
	}
}

// between sets up again beside the live product, for 50 ms and at least
// once, and discards what it built; nothing once three seconds of set-up
// have been spent in all.
func (s *setupTimer[T]) between() error {
	if s.o.mode == modeLayers || s.o.quick {
		return nil
	}
	var spent float64
	for _, v := range s.secs {
		spent += v
	}
	for t0 := time.Now(); spent < 3; {
		v, err := s.one()
		if err != nil {
			return err
		}
		s.drop(v)
		spent += s.secs[len(s.secs)-1]
		if time.Since(t0) > 50*time.Millisecond {
			break
		}
	}
	return nil
}

// digestInts fingerprints a solver workload's change event.
func digestInts(vals []int) string {
	h := sha256.New()
	for _, v := range vals {
		fmt.Fprintf(h, "%d,", v)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// denseInput is solve_dense's generated input.
type denseInput struct {
	night, day *core.Problem
	changed    []int
	genMS      float64
}

func runSolveDense(w *workloadSpec, o *runOpts) (*result, error) {
	n := w.N
	graParams := gra.DefaultParams() // Np 50, Ng 80
	if o.quick {
		n = w.QuickN
		graParams.PopSize, graParams.Generations = 10, 4
	}
	setup := &setupTimer[denseInput]{o: o, build: func() (denseInput, error) {
		t0 := time.Now()
		night, err := workload.Generate(workload.NewSpec(w.Sites, n, w.Update, w.Capacity), instanceSeed)
		if err != nil {
			return denseInput{}, err
		}
		genMS := ms(time.Since(t0).Nanoseconds())
		// The paper's Section 6.3 shift: 20% of objects change by 600%,
		// 70% of them towards reads. --seed picks which.
		day, changes, err := workload.ApplyChange(night, workload.ChangeSpec{Ch: 6, ObjectShare: 0.2, ReadShare: 0.7}, o.seed)
		if err != nil {
			return denseInput{}, err
		}
		changed := make([]int, len(changes))
		for i, c := range changes {
			changed[i] = c.Object
		}
		return denseInput{night, day, changed, genMS}, nil
	}}
	in, err := setup.first()
	if err != nil {
		return nil, err
	}
	res := &result{Workload: w.Name, Seed: o.seed, StreamDigest: digestInts(in.changed), K: 1 + w.Adapts, Metrics: metricSet{}}
	m := res.Metrics
	m.put("workload.generate_ms", in.genMS)

	agraParams := agra.DefaultParams()
	mini := gra.DefaultParams()
	mini.PopSize = 20
	const miniGenerations = 5

	var first struct {
		static, adapted *core.Scheme
	}
	var last struct {
		sra     *sra.Result
		gra     *gra.Result
		adapted *agra.Result
	}
	check := func(what string, s *core.Scheme, cost int64, ref **core.Scheme) error {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		if cost != s.Cost() || cost > s.Problem().DPrime() {
			return fmt.Errorf("%s: reported cost %d, scheme costs %d, D′ is %d", what, cost, s.Cost(), s.Problem().DPrime())
		}
		if *ref == nil {
			*ref = s
		} else if !s.Equal(*ref) {
			return fmt.Errorf("%s: scheme differs from the first round's", what)
		}
		return nil
	}
	round := func() (time.Duration, []time.Duration, error) {
		t0 := time.Now()
		last.sra = sra.Run(in.night, sra.Options{})
		g, err := gra.Run(in.night, graParams)
		if err != nil {
			return 0, nil, err
		}
		solve := time.Since(t0)
		last.gra = g
		if err := check("GRA", g.Scheme, g.Cost, &first.static); err != nil {
			return 0, nil, err
		}
		current, err := core.SchemeFromBits(in.day, g.Scheme.Bits())
		if err != nil {
			return 0, nil, err
		}
		adapts := make([]time.Duration, w.Adapts)
		for i := range adapts {
			input := agra.Input{Problem: in.day, Current: current, GRAPopulation: g.Population, Changed: in.changed}
			t0 := time.Now()
			a, err := agra.Adapt(input, agraParams, mini, miniGenerations)
			if err != nil {
				return 0, nil, err
			}
			adapts[i] = time.Since(t0)
			last.adapted = a
			if err := check("AGRA", a.Scheme, a.Cost, &first.adapted); err != nil {
				return 0, nil, err
			}
		}
		return solve, adapts, nil
	}
	if err := solverRounds(w, o, res, round, setup.between); err != nil {
		return nil, err
	}
	m.putRounds("setup_s", setup.secs)

	// The model's transfer cost per request of the static placement: the
	// solvers' counterpart of the data plane's accounted NTC. It is exact
	// and, with the instance fixed, the same for every seed; the adapted
	// scheme's quality is e2e.adapt_savings_pct.
	var requests int64
	for k := 0; k < in.night.Objects(); k++ {
		requests += in.night.TotalReads(k) + in.night.TotalWrites(k)
	}
	m.put("ntc_per_req", float64(last.gra.Cost)/float64(requests))
	m.put("e2e.savings_pct", last.gra.Scheme.Savings())
	m.put("e2e.adapt_savings_pct", last.adapted.Savings)
	m.put("rss_mb", peakRSSMB())

	if o.mode != modeE2E {
		m.put("sra.solve_ms", ms(last.sra.Elapsed.Nanoseconds()))
		m.put("sra.savings_pct", last.sra.Scheme.Savings())
		// One more solve with an observer: generation boundaries are
		// timed from outside, which the plain rounds must not pay for.
		var marks []time.Time
		obs := solver.ObserverFunc(func(solver.Progress) { marks = append(marks, time.Now()) })
		g, err := gra.RunWith(in.night, graParams, solver.Run{Observer: obs})
		if err != nil {
			return nil, err
		}
		var gens []float64
		for i := 1; i < len(marks); i++ {
			gens = append(gens, ms(marks[i].Sub(marks[i-1]).Nanoseconds()))
		}
		if len(gens) > 0 {
			m.put("gra.generation_ms", median(gens))
		}
		m.put("gra.solve_s", g.Elapsed.Seconds())
		m.put("gra.evals", float64(g.Evaluations))
		m.put("gra.evals_per_s", float64(g.Evaluations)/g.Elapsed.Seconds())
		m.put("agra.micro_ms", ms(last.adapted.MicroElapsed.Nanoseconds()))
		m.put("agra.evals", float64(last.adapted.Stats.Evaluations))
		m.put("agra.changed_objects", float64(len(in.changed)))

		bits := g.Scheme.Bits()
		ev := core.NewEvaluator(in.night)
		var sink int64
		m.put("core.eval_us", meanNS(o.scale(2000), func(int) { sink += ev.Cost(bits) })/1e3)
		de := core.NewDeltaEvaluator(g.Scheme.Clone())
		sites, objects := in.night.Sites(), in.night.Objects()
		m.put("core.delta_ns", meanNS(o.scale(200000), func(i int) {
			d, _ := de.AddDelta(i%sites, (i/sites)%objects)
			sink += d
		}))
		pool := core.NewEvalPool(in.night, 0)
		reps := o.scale(2000)/len(g.Population) + 1
		m.put("core.evalpool_us", meanNS(reps, func(int) { sink += pool.Costs(g.Population)[0] })/1e3/float64(len(g.Population)))
		runtime.KeepAlive(sink)
	}
	m.put("e2e.fail_frac", 0)
	res.Correct = true
	return res, nil
}

// sparseInput is solve_sparse's generated input.
type sparseInput struct {
	night, day *sparse.Model
	changed    []int
	genS       float64
}

func runSolveSparse(w *workloadSpec, o *runOpts) (*result, error) {
	n := w.N
	if o.quick {
		n = w.QuickN
	}
	spec := sparse.NewWorkloadSpec(w.Sites, n)
	spec.CapacityRatio = w.Capacity
	var heapBefore, heapAfter runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&heapBefore)
	setup := &setupTimer[sparseInput]{o: o, build: func() (sparseInput, error) {
		t0 := time.Now()
		night, err := sparse.GenerateWorkload(spec, instanceSeed)
		if err != nil {
			return sparseInput{}, err
		}
		genS := time.Since(t0).Seconds()
		day, changed, err := sparse.PerturbWorkload(night, spec, 0.05, o.seed)
		if err != nil {
			return sparseInput{}, err
		}
		return sparseInput{night, day, changed, genS}, nil
	}}
	in, err := setup.first()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	runtime.ReadMemStats(&heapAfter)
	res := &result{Workload: w.Name, Seed: o.seed, StreamDigest: digestInts(in.changed), K: 1 + w.Adapts, Metrics: metricSet{}}
	m := res.Metrics
	m.putRounds("setup_s", setup.secs)

	var first struct{ static, adapted *sparse.Assignment }
	var last struct{ solved, adapted *sparse.Result }
	check := func(what string, mo *sparse.Model, r *sparse.Result, ref **sparse.Assignment) error {
		if err := r.Assignment.Validate(); err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		if r.Cost > mo.DPrime() {
			return fmt.Errorf("%s: cost %d exceeds D′ %d", what, r.Cost, mo.DPrime())
		}
		if *ref == nil {
			*ref = r.Assignment
			// The incremental cost must equal a full evaluation (once).
			if full := sparse.NewEvaluator(mo).Cost(r.Assignment); full != r.Cost {
				return fmt.Errorf("%s: reported cost %d, full evaluation %d", what, r.Cost, full)
			}
		} else if !r.Assignment.Equal(*ref) {
			return fmt.Errorf("%s: assignment differs from the first round's", what)
		}
		return nil
	}
	round := func() (time.Duration, []time.Duration, error) {
		t0 := time.Now()
		solved, err := sparse.Solve(in.night, sparse.SolveParams{}, solver.Run{})
		if err != nil {
			return 0, nil, err
		}
		solve := time.Since(t0)
		last.solved = solved
		if err := check("sparse.Solve", in.night, solved, &first.static); err != nil {
			return 0, nil, err
		}
		carried, err := rebind(in.day, solved.Assignment)
		if err != nil {
			return 0, nil, err
		}
		adapts := make([]time.Duration, w.Adapts)
		for i := range adapts {
			// Adapt mutates its assignment: each op starts from a copy,
			// made outside the timed interval.
			start := carried.Clone()
			t0 := time.Now()
			a, err := sparse.Adapt(in.day, start, in.changed, sparse.SolveParams{}, solver.Run{})
			if err != nil {
				return 0, nil, err
			}
			adapts[i] = time.Since(t0)
			last.adapted = a
			if err := check("sparse.Adapt", in.day, a, &first.adapted); err != nil {
				return 0, nil, err
			}
		}
		return solve, adapts, nil
	}
	// No set-ups between rounds: a second instance beside the live one would
	// double rss_mb.
	if err := solverRounds(w, o, res, round, func() error { return nil }); err != nil {
		return nil, err
	}

	var requests int64
	for k := 0; k < n; k++ {
		requests += in.night.TotalReads(k) + in.night.TotalWrites(k)
	}
	m.put("ntc_per_req", float64(last.solved.Cost)/float64(requests))
	m.put("e2e.savings_pct", last.solved.Savings)
	m.put("e2e.adapt_savings_pct", last.adapted.Savings)
	m.put("rss_mb", peakRSSMB())

	if o.mode != modeE2E {
		readNNZ, writeNNZ := in.night.AccessEntries()
		nnz := float64(readNNZ + writeNNZ)
		m.put("sparse.gen_s", in.genS)
		m.put("sparse.nnz", nnz)
		m.put("sparse.candidates_per_obj", float64(in.night.CandidateCount())/float64(n))
		// Two models (night and day) are live between the two heap readings.
		m.put("sparse.bytes_per_nnz", float64(heapAfter.HeapAlloc-heapBefore.HeapAlloc)/2/nnz)
		m.put("sparse.solve_evals", float64(last.solved.Stats.Evaluations))
		m.put("sparse.solve_evals_per_s", float64(last.solved.Stats.Evaluations)/last.solved.Stats.Elapsed.Seconds())
		m.put("sparse.adapt_evals", float64(last.adapted.Stats.Evaluations))
		ev := sparse.NewEvaluator(in.night)
		var sink int64
		m.put("sparse.eval_ms", meanNS(max(o.scale(300)/100, 2), func(int) { sink += ev.Cost(last.solved.Assignment) })/1e6)
		de := sparse.NewDeltaEvaluator(last.solved.Assignment.Clone())
		m.put("sparse.delta_ns", meanNS(o.scale(200000), func(i int) {
			k := i % n
			cand := in.night.Candidates(k)
			if len(cand) == 0 {
				return
			}
			d, _ := de.AddDelta(int(cand[i%len(cand)]), k)
			sink += d
		}))
		runtime.KeepAlive(sink)
	}
	m.put("e2e.fail_frac", 0)
	res.Correct = true
	return res, nil
}

// rebind copies an assignment onto another model of the same system (new
// patterns, same sizes, capacities and primaries).
func rebind(mo *sparse.Model, a *sparse.Assignment) (*sparse.Assignment, error) {
	out := sparse.NewAssignment(mo)
	for k := 0; k < mo.Objects(); k++ {
		for _, i := range a.Replicators(k) {
			if i == mo.Primary(k) {
				continue
			}
			if err := out.Add(int(i), k); err != nil {
				return nil, fmt.Errorf("rebind object %d site %d: %w", k, i, err)
			}
		}
	}
	return out, nil
}
