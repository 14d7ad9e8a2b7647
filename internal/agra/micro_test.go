package agra

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"drp/internal/bitset"
	"drp/internal/core"
	"drp/internal/gra"
	"drp/internal/solver"
	"drp/internal/workload"
	"drp/internal/xrand"
)

// adaptiveTestCase is the benchmark's solve_dense adaptation: the seed-1
// instance (M=50, N=200), its seed-1 change event (20% of objects by 600%,
// 70% of them towards reads), starting from GRA's placement and population.
func adaptiveTestCase(t *testing.T) Input {
	t.Helper()
	night := gen(t, 50, 200, 0.05, 0.15, 1)
	return changedInput(t, night, workload.ChangeSpec{Ch: 6, ObjectShare: 0.2, ReadShare: 0.7}, gra.DefaultParams())
}

// changedInput applies change event 1 to night and hands Adapt the placement
// and population of a static GRA run (graParams) on night.
func changedInput(t *testing.T, night *core.Problem, spec workload.ChangeSpec, graParams gra.Params) Input {
	t.Helper()
	day, changes, err := workload.ApplyChange(night, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	changed := make([]int, len(changes))
	for i, c := range changes {
		changed[i] = c.Object
	}
	static, err := gra.Run(night, graParams)
	if err != nil {
		t.Fatal(err)
	}
	current, err := core.SchemeFromBits(day, static.Scheme.Bits())
	if err != nil {
		t.Fatal(err)
	}
	return Input{Problem: day, Current: current, GRAPopulation: static.Population, Changed: changed}
}

// microDigest is the FNV-1a digest of every micro-GA result: object, the
// winning sites, the fitness bits, evaluations, generations and the set
// positions of every final chromosome, each closed by an all-ones word.
func microDigest(objs []ObjectResult) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, or := range objs {
		put(uint64(or.Object))
		for _, i := range or.Best {
			put(uint64(i))
		}
		put(^uint64(0))
		put(math.Float64bits(or.Fitness))
		put(uint64(or.Evaluations))
		put(uint64(or.Generations))
		for _, bits := range or.Population {
			for pos := bits.NextSet(0); pos >= 0; pos = bits.NextSet(pos + 1) {
				put(uint64(pos))
			}
			put(^uint64(0))
		}
	}
	return h.Sum64()
}

// TestMicroResultsPinnedOnAdaptiveTestCase pins every micro-GA outcome —
// not just the adapted scheme the mini-GRA polishes — at every worker
// count: on the adaptive test case (one-word chromosomes) and at M = 130,
// where a chromosome spans three words. Among the faults it catches: a
// memoised pricing that skips the primary-only reset of a negative-fitness
// chromosome, a memo keyed on its first word only, and an elite that
// shares storage with a population member.
func TestMicroResultsPinnedOnAdaptiveTestCase(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size GRA runs and six adaptations")
	}
	small := gra.DefaultParams()
	small.PopSize = 10
	small.Generations = 10
	cases := []struct {
		name   string
		in     Input
		digest uint64
	}{
		{"M=50", adaptiveTestCase(t), 0xe8afe41302d34b53},
		{"M=130", changedInput(t, gen(t, 130, 40, 0.05, 0.15, 3), workload.ChangeSpec{Ch: 6, ObjectShare: 0.3, ReadShare: 0.7}, small), 0x0ceef47daffe58da},
	}
	for _, tc := range cases {
		for _, procs := range []int{1, 2, 8} {
			setProcs(t, procs)
			params := DefaultParams()
			res, err := Adapt(tc.in, params, miniParams(1), 0)
			if err != nil {
				t.Fatalf("%s GOMAXPROCS=%d: %v", tc.name, procs, err)
			}
			if got := microDigest(res.Objects); got != tc.digest {
				t.Errorf("%s GOMAXPROCS=%d: micro-GA results digest %#x, recorded %#x", tc.name, procs, got, tc.digest)
			}
		}
	}
}

// TestMicroPricingsPinnedOnAdaptiveTestCase counts the work the memo saves:
// of the 20 400 micro-GA evaluations of the adaptive test case, 13 052
// price a chromosome their micro-GA had not priced before; the rest are
// memo hits. Each still ticks the meter, so the run's evaluation count —
// micro-GAs, transcription and a 20×5 mini-GRA — stays 20 620.
func TestMicroPricingsPinnedOnAdaptiveTestCase(t *testing.T) {
	if testing.Short() {
		t.Skip("a full-size GRA run and three adaptations")
	}
	in := adaptiveTestCase(t)
	for _, procs := range []int{1, 2, 8} {
		setProcs(t, procs)
		params := DefaultParams()
		mini := gra.DefaultParams()
		mini.PopSize = 20
		res, err := Adapt(in, params, mini, 5)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		evals, pricings := 0, 0
		for _, or := range res.Objects {
			evals += or.Evaluations
			pricings += or.pricings
		}
		if evals != 20400 || pricings != 13052 || res.Stats.Evaluations != 20620 {
			t.Fatalf("GOMAXPROCS=%d: %d micro evaluations, %d pricings, %d in all; recorded 20400, 13052, 20620",
				procs, evals, pricings, res.Stats.Evaluations)
		}
	}
}

// minMallocs returns the fewest heap allocations one call of fn makes, over
// runs calls, each started right after a collection and one warm-up call
// with GOMAXPROCS pinned to 1. A collection that starts mid-call can add
// allocations of the runtime's own to that call; such foreign allocations
// only ever add, so the minimum is fn's own count.
func minMallocs(runs int, fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fewest := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range runs {
		runtime.GC()
		fn()
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	return fewest
}

// raceBuild reports whether the test binary was built with -race, whose
// runtime makes allocations of its own during a run.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// TestMicroAllocsIndependentOfGenerations: a micro-GA evolves its
// population in the two slabs it was built with, so ten times the
// generations allocate nothing more — at one word per chromosome and at
// three.
func TestMicroAllocsIndependentOfGenerations(t *testing.T) {
	for _, m := range []int{50, 130} {
		p := gen(t, m, 30, 0.05, 0.15, 9)
		current := []int{0, 3, 7}
		allocs := func(generations int) uint64 {
			params := DefaultParams()
			params.Generations = generations
			c := solver.Start("agra", solver.Run{})
			return minMallocs(5, func() {
				newMicroGA(p, params, c).runObject(4, current, nil, xrand.New(3))
			})
		}
		if short, long := allocs(10), allocs(100); short != long {
			t.Fatalf("M=%d: a micro-GA allocates %d times over 10 generations, %d over 100", m, short, long)
		}
	}
}

// TestAdaptRejectsMisshapenInput: a GRA chromosome that is not M·N bits, or
// a current scheme of another shape, is an error before any micro-GA runs —
// not an index panic, which at GOMAXPROCS > 1 would kill the process from
// a worker goroutine.
func TestAdaptRejectsMisshapenInput(t *testing.T) {
	_, newP, current, changed := adaptFixture(t, workload.ChangeSpec{Ch: 6, ObjectShare: 0.3, ReadShare: 0.5}, 80)
	row := bitset.New(newP.Objects())
	other := core.NewScheme(gen(t, newP.Sites()+1, newP.Objects(), 0.05, 0.15, 80))
	for _, procs := range []int{1, 8} {
		setProcs(t, procs)
		params := microParams(3)
		for name, in := range map[string]Input{
			"one-row GRA chromosome": {Problem: newP, Current: current, GRAPopulation: []*bitset.Set{current.Bits(), row}, Changed: changed},
			"current of M+1 sites":   {Problem: newP, Current: other, Changed: changed},
		} {
			if _, err := Adapt(in, params, miniParams(3), 0); err == nil {
				t.Errorf("GOMAXPROCS=%d: %s accepted", procs, name)
			}
		}
	}
}

// TestAdaptAllocsPinnedOnAdaptiveTestCase pins the allocations of one
// agra.Adapt on the paper's adaptive test case at GOMAXPROCS 1 — the
// micro-GAs of 40 changed objects, transcription and a 20×5 mini-GRA:
// 2 683 before the mini-GRA bred its children into recycled buffers.
func TestAdaptAllocsPinnedOnAdaptiveTestCase(t *testing.T) {
	if testing.Short() || raceBuild() {
		t.Skip("a full-size GRA run and adaptations, counted without the race detector")
	}
	in := adaptiveTestCase(t)
	params := DefaultParams()
	mini := gra.DefaultParams()
	mini.PopSize = 20
	const recorded = 1705
	got := minMallocs(3, func() {
		if _, err := Adapt(in, params, mini, 5); err != nil {
			t.Fatal(err)
		}
	})
	if got != recorded {
		t.Fatalf("one Adapt allocates %d times, recorded %d", got, recorded)
	}
}
