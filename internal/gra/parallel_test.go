package gra

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"drp/internal/bitset"
	"drp/internal/solver"
	"drp/internal/xrand"
)

// setProcs sets GOMAXPROCS, which sizes every worker pool, to n until the
// test ends.
func setProcs(t testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestRunParallelBitIdentical is the tentpole guarantee: for the same seed,
// every GOMAXPROCS produces exactly the serial run — same elite bits,
// cost, fitness, per-generation history and final population.
func TestRunParallelBitIdentical(t *testing.T) {
	p := gen(t, 10, 14, 0.05, 0.12, 21)
	var ref *Result
	for _, procs := range []int{1, 2, 8} {
		setProcs(t, procs)
		res, err := Run(p, smallParams(31))
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.Cost != ref.Cost || res.Fitness != ref.Fitness {
			t.Fatalf("GOMAXPROCS=%d: cost/fitness %d/%v diverged from serial %d/%v",
				procs, res.Cost, res.Fitness, ref.Cost, ref.Fitness)
		}
		if !res.Scheme.Equal(ref.Scheme) {
			t.Fatalf("GOMAXPROCS=%d: elite scheme bits diverged from serial", procs)
		}
		if res.Evaluations != ref.Evaluations {
			t.Fatalf("GOMAXPROCS=%d: %d evaluations, serial did %d", procs, res.Evaluations, ref.Evaluations)
		}
		if len(res.History) != len(ref.History) {
			t.Fatalf("GOMAXPROCS=%d: history length %d vs %d", procs, len(res.History), len(ref.History))
		}
		for g := range res.History {
			if res.History[g] != ref.History[g] {
				t.Fatalf("GOMAXPROCS=%d: generation %d stats %+v diverged from %+v",
					procs, g, res.History[g], ref.History[g])
			}
		}
		for i := range res.Population {
			if !res.Population[i].Equal(ref.Population[i]) {
				t.Fatalf("GOMAXPROCS=%d: final population member %d diverged", procs, i)
			}
		}
	}
}

// TestRunWithPopulationParallelBitIdentical covers the AGRA-facing entry
// point (mini-GRA, Current+GRA policies) at several worker counts.
func TestRunWithPopulationParallelBitIdentical(t *testing.T) {
	p := gen(t, 9, 12, 0.05, 0.15, 22)
	init := seedSRA(p, 6, xrand.New(5))
	var ref *Result
	for _, procs := range []int{1, 2, 8} {
		setProcs(t, procs)
		res, err := ContinueWith(p, smallParams(37), init, solver.Run{})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.Cost != ref.Cost || res.Fitness != ref.Fitness || !res.Scheme.Equal(ref.Scheme) {
			t.Fatalf("GOMAXPROCS=%d diverged from serial", procs)
		}
	}
}

// TestRunParallelHammer is the -race workhorse: a wide pool, aggressive
// variation rates and enough generations to push many batches through it.
func TestRunParallelHammer(t *testing.T) {
	p := gen(t, 10, 15, 0.05, 0.10, 24)
	setProcs(t, 8)
	params := smallParams(43)
	params.Generations = 25
	params.CrossoverRate = 1.0
	params.MutationRate = 0.05
	res, err := Run(p, params)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Scheme.Validate(); err != nil {
		t.Fatalf("hammered run produced invalid scheme: %v", err)
	}
}

// TestTrajectoryPinnedOnAdaptiveTestCase pins the search itself on the
// paper's adaptive test case (M=50, N=200, U=5%, C=15%, the benchmark's
// solve_dense instance): default parameters end at cost 16 064 740 after
// exactly 8 050 evaluations, at GOMAXPROCS 1, 2 and 8. The evaluator is free
// to change how it computes eq. 4 but not what — one wrong integer or one
// extra meter tick moves a selection and this number with it.
func TestTrajectoryPinnedOnAdaptiveTestCase(t *testing.T) {
	if testing.Short() {
		t.Skip("three full-size GRA runs")
	}
	p := gen(t, 50, 200, 0.05, 0.15, 1)
	for _, procs := range []int{1, 2, 8} {
		setProcs(t, procs)
		res, err := Run(p, DefaultParams())
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if res.Cost != 16064740 || res.Evaluations != 8050 {
			t.Fatalf("GOMAXPROCS=%d: cost %d after %d evaluations, recorded 16064740 after 8050", procs, res.Cost, res.Evaluations)
		}
	}
}

// TestHistoryPinnedOnAdaptiveTestCase pins more of the same run than the
// elite's cost: every History row (mean fitness depends on the cost of every
// individual, not just the best) and the final population's bits, as one
// FNV-1a digest, at GOMAXPROCS 1, 2 and 8. A wrong V_k anywhere in the
// population moves it even when the elite survives.
func TestHistoryPinnedOnAdaptiveTestCase(t *testing.T) {
	if testing.Short() {
		t.Skip("three full-size GRA runs")
	}
	p := gen(t, 50, 200, 0.05, 0.15, 1)
	for _, procs := range []int{1, 2, 8} {
		setProcs(t, procs)
		res, err := Run(p, DefaultParams())
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if got := historyDigest(res.History, res.Population); got != 0x8cca6994bae4769d {
			t.Fatalf("GOMAXPROCS=%d: history and population digest %#x, recorded %#x", procs, got, uint64(0x8cca6994bae4769d))
		}
	}
}

// historyDigest is the FNV-1a digest of every row's Gen, BestCost and the
// bit patterns of BestFitness and MeanFitness, followed by the set positions
// of every chromosome, each chromosome closed by an all-ones word.
func historyDigest(history []GenStats, pop []*bitset.Set) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, g := range history {
		put(uint64(g.Gen))
		put(uint64(g.BestCost))
		put(math.Float64bits(g.BestFitness))
		put(math.Float64bits(g.MeanFitness))
	}
	for _, bits := range pop {
		for pos := bits.NextSet(0); pos >= 0; pos = bits.NextSet(pos + 1) {
			put(uint64(pos))
		}
		put(^uint64(0))
	}
	return h.Sum64()
}
