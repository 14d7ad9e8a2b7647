package agra

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"drp/internal/bitset"
	"drp/internal/core"
	"drp/internal/gra"
	"drp/internal/solver"
	"drp/internal/workload"
)

// setProcs sets GOMAXPROCS, which sizes every worker pool, to n until the
// test ends.
func setProcs(t testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestAdaptParallelBitIdentical asserts the adaptive pipeline's determinism
// guarantee: GOMAXPROCS 1, 2 and 8 all reproduce the serial result —
// same adapted scheme, cost, per-object winners and retained population.
// The fixture is built once and shared (Scheme.Equal requires the same
// *Problem); Adapt only reads it.
func TestAdaptParallelBitIdentical(t *testing.T) {
	_, newP, current, changed := adaptFixture(t, workload.ChangeSpec{Ch: 6, ObjectShare: 0.3, ReadShare: 0.5}, 50)
	cur, err := core.SchemeFromBits(newP, current.Bits())
	if err != nil {
		t.Fatal(err)
	}
	runAdaptAt := func(procs int) *Result {
		setProcs(t, procs)
		res, err := Adapt(Input{Problem: newP, Current: cur, Changed: changed}, microParams(11), miniParams(11), 4)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		return res
	}
	ref := runAdaptAt(1)
	for _, procs := range []int{2, 8} {
		res := runAdaptAt(procs)
		if res.Cost != ref.Cost || res.Savings != ref.Savings {
			t.Fatalf("GOMAXPROCS=%d: cost/savings %d/%v diverged from serial %d/%v",
				procs, res.Cost, res.Savings, ref.Cost, ref.Savings)
		}
		if !res.Scheme.Equal(ref.Scheme) {
			t.Fatalf("GOMAXPROCS=%d: adapted scheme bits diverged from serial", procs)
		}
		if len(res.Objects) != len(ref.Objects) {
			t.Fatalf("GOMAXPROCS=%d: %d object results, want %d", procs, len(res.Objects), len(ref.Objects))
		}
		for i := range res.Objects {
			a, b := res.Objects[i], ref.Objects[i]
			if a.Object != b.Object || a.Fitness != b.Fitness || a.Evaluations != b.Evaluations {
				t.Fatalf("GOMAXPROCS=%d: object %d result diverged (%+v vs %+v)", procs, i, a, b)
			}
			if len(a.Best) != len(b.Best) {
				t.Fatalf("GOMAXPROCS=%d: object %d best scheme size diverged", procs, i)
			}
			for j := range a.Best {
				if a.Best[j] != b.Best[j] {
					t.Fatalf("GOMAXPROCS=%d: object %d best scheme diverged", procs, i)
				}
			}
		}
		for i := range res.Population {
			if !res.Population[i].Equal(ref.Population[i]) {
				t.Fatalf("GOMAXPROCS=%d: retained population member %d diverged", procs, i)
			}
		}
	}
}

// TestAdaptParallelHammer drives the fan-out under -race: every changed
// object's micro-GA runs concurrently against the shared problem and GRA
// population.
func TestAdaptParallelHammer(t *testing.T) {
	old, newP, current, changed := adaptFixture(t, workload.ChangeSpec{Ch: 6, ObjectShare: 0.5, ReadShare: 0.5}, 60)
	graParams := gra.DefaultParams()
	graParams.PopSize = 8
	graParams.Generations = 4
	graParams.Seed = 13
	graRes, err := gra.Run(old, graParams)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := core.SchemeFromBits(newP, current.Bits())
	if err != nil {
		t.Fatal(err)
	}
	setProcs(t, 8)
	params := microParams(17)
	res, err := Adapt(Input{
		Problem:       newP,
		Current:       cur,
		GRAPopulation: graRes.Population,
		Changed:       changed,
	}, params, miniParams(17), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Scheme.Validate(); err != nil {
		t.Fatalf("hammered adaptation produced invalid scheme: %v", err)
	}
}

// TestTrajectoryPinnedOnAdaptiveTestCase pins the adaptation the benchmark's
// solve_dense workload times (adaptiveTestCase) with default micro-GA
// parameters and a 20×5 mini-GRA. It ends at cost 21 727 410 after exactly 20 620 evaluations at
// GOMAXPROCS 1, 2 and 8 — the evaluator may change how it computes eq. 4, not
// what, nor how many meter ticks a priced object costs.
func TestTrajectoryPinnedOnAdaptiveTestCase(t *testing.T) {
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
		if res.Cost != 21727410 || res.Stats.Evaluations != 20620 {
			t.Fatalf("GOMAXPROCS=%d: cost %d after %d evaluations, recorded 21727410 after 20620", procs, res.Cost, res.Stats.Evaluations)
		}
	}
}

// TestHistoryPinnedOnAdaptiveTestCase pins the mini-GRA of the adaptation
// above beyond its elite: every generation's progress event (generation,
// best cost, the bit patterns of best and mean fitness) and the retained
// population's bits, as one FNV-1a digest, at GOMAXPROCS 1, 2 and 8.
func TestHistoryPinnedOnAdaptiveTestCase(t *testing.T) {
	if testing.Short() {
		t.Skip("a full-size GRA run and three adaptations")
	}
	in := adaptiveTestCase(t)
	for _, procs := range []int{1, 2, 8} {
		setProcs(t, procs)
		params := DefaultParams()
		mini := gra.DefaultParams()
		mini.PopSize = 20
		// The micro-GAs report as "agra" from worker goroutines; the
		// mini-GRA reports as "gra", in order, from the coordinator.
		var rows []solver.Progress
		observer := solver.Synchronized(solver.ObserverFunc(func(pr solver.Progress) {
			if pr.Algorithm == "gra" {
				rows = append(rows, pr)
			}
		}))
		res, err := AdaptWith(in, params, mini, 5, solver.Run{Observer: observer})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if len(rows) != 6 {
			t.Fatalf("GOMAXPROCS=%d: %d mini-GRA progress events, want 6", procs, len(rows))
		}
		if got := historyDigest(rows, res.Population); got != 0xcd3de5cea3e4c3ae {
			t.Fatalf("GOMAXPROCS=%d: mini-GRA history and population digest %#x, recorded %#x", procs, got, uint64(0xcd3de5cea3e4c3ae))
		}
	}
}

// historyDigest is the FNV-1a digest of every row's iteration, best cost and
// the bit patterns of its best and mean fitness, followed by the set
// positions of every chromosome, each chromosome closed by an all-ones word.
func historyDigest(rows []solver.Progress, pop []*bitset.Set) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, r := range rows {
		put(uint64(r.Iteration))
		put(uint64(r.BestCost))
		put(math.Float64bits(r.BestFitness))
		put(math.Float64bits(r.MeanFitness))
	}
	for _, bits := range pop {
		for pos := bits.NextSet(0); pos >= 0; pos = bits.NextSet(pos + 1) {
			put(uint64(pos))
		}
		put(^uint64(0))
	}
	return h.Sum64()
}
