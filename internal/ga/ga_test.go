package ga

import (
	"math"
	"testing"

	"drp/internal/bitset"
	"drp/internal/xrand"
)

func mkpop(fitness ...float64) []Individual {
	pop := make([]Individual, len(fitness))
	for i, f := range fitness {
		pop[i] = Individual{Bits: bitset.New(8), Fitness: f}
		pop[i].Bits.Set(i % 8)
	}
	return pop
}

// selected returns the individuals StochasticRemainder picks from pool.
func selected(pool []Individual, count int, rng *xrand.Source) []Individual {
	var out []Individual
	for _, i := range StochasticRemainder(nil, pool, count, rng) {
		out = append(out, pool[i])
	}
	return out
}

func TestBestWorstMean(t *testing.T) {
	pop := mkpop(0.2, 0.9, 0.5)
	if Best(pop) != 1 {
		t.Fatalf("Best = %d, want 1", Best(pop))
	}
	if Worst(pop) != 0 {
		t.Fatalf("Worst = %d, want 0", Worst(pop))
	}
	if m := MeanFitness(pop); math.Abs(m-(0.2+0.9+0.5)/3) > 1e-12 {
		t.Fatalf("MeanFitness = %v", m)
	}
	if Best(nil) != -1 || Worst(nil) != -1 || MeanFitness(nil) != 0 {
		t.Fatal("empty population edge cases broken")
	}
}

func TestCloneIsDeep(t *testing.T) {
	ind := Individual{Bits: bitset.New(4), Cost: 7, Fitness: 0.5, Objects: []int64{3, 4}, Usage: []int64{6}}
	c := ind.Clone()
	c.Bits.Set(0)
	c.Objects[0] = 5
	c.Usage[0] = 8
	if ind.Bits.Test(0) {
		t.Fatal("clone shares bits with original")
	}
	if ind.Objects[0] != 3 {
		t.Fatal("clone shares its per-object costs with original")
	}
	if ind.Usage[0] != 6 {
		t.Fatal("clone shares its per-site usage with original")
	}
	// CopyFrom brings the original back into the clone's storage.
	c.CopyFrom(ind)
	if c.Bits.Test(0) || c.Objects[0] != 3 || c.Usage[0] != 6 || c.Cost != 7 || c.Fitness != 0.5 {
		t.Fatalf("CopyFrom left %+v, want the original's chromosome and evaluation", c)
	}
	if c.Cost != 7 || c.Fitness != 0.5 || c.Objects[1] != 4 {
		t.Fatal("clone lost metadata")
	}
	if (Individual{Bits: bitset.New(4)}).Clone().Objects != nil {
		t.Fatal("clone of an individual without per-object costs grew some")
	}
}

func TestStochasticRemainderDeterministicPart(t *testing.T) {
	// With fitness 3:1 and 4 slots, expected copies are 3 and 1 exactly —
	// no roulette needed, so the allocation is deterministic.
	pop := mkpop(3, 1)
	rng := xrand.New(1)
	out := selected(pop, 4, rng)
	if len(out) != 4 {
		t.Fatalf("selected %d, want 4", len(out))
	}
	counts := map[float64]int{}
	for _, ind := range out {
		counts[ind.Fitness]++
	}
	if counts[3] != 3 || counts[1] != 1 {
		t.Fatalf("counts = %v, want 3×f3, 1×f1", counts)
	}
}

func TestStochasticRemainderProportionality(t *testing.T) {
	pop := mkpop(0.7, 0.2, 0.1)
	rng := xrand.New(2)
	counts := make([]int, 3)
	const rounds = 2000
	for r := 0; r < rounds; r++ {
		for _, ind := range selected(pop, 10, rng) {
			switch ind.Fitness {
			case 0.7:
				counts[0]++
			case 0.2:
				counts[1]++
			case 0.1:
				counts[2]++
			}
		}
	}
	total := float64(rounds * 10)
	for i, want := range []float64{0.7, 0.2, 0.1} {
		got := float64(counts[i]) / total
		if math.Abs(got-want) > 0.02 {
			t.Errorf("individual %d selected %.3f of slots, want ~%.1f", i, got, want)
		}
	}
}

func TestStochasticRemainderZeroFitness(t *testing.T) {
	pop := mkpop(0, 0, 0)
	out := selected(pop, 6, xrand.New(3))
	if len(out) != 6 {
		t.Fatalf("selected %d, want 6", len(out))
	}
}

func TestStochasticRemainderEmpty(t *testing.T) {
	if out := selected(nil, 5, xrand.New(1)); len(out) != 0 {
		t.Fatal("selection from empty pool returned individuals")
	}
	if out := selected(mkpop(1), 0, xrand.New(1)); len(out) != 0 {
		t.Fatal("zero-count selection returned individuals")
	}
}

// cloningStochasticRemainder is the selection as it was when it returned
// deep copies, kept as the reference for its index form.
func cloningStochasticRemainder(pool []Individual, count int, rng *xrand.Source) []Individual {
	out := make([]Individual, 0, count)
	if len(pool) == 0 || count == 0 {
		return out
	}
	total := 0.0
	for i := range pool {
		total += pool[i].Fitness
	}
	if total <= 0 {
		for len(out) < count {
			out = append(out, pool[rng.Intn(len(pool))].Clone())
		}
		return out
	}
	fracs := make([]float64, len(pool))
	for i := range pool {
		expected := float64(count) * pool[i].Fitness / total
		copies := int(expected)
		fracs[i] = expected - float64(copies)
		for c := 0; c < copies && len(out) < count; c++ {
			out = append(out, pool[i].Clone())
		}
	}
	for len(out) < count {
		idx := rouletteIndex(fracs, rng)
		out = append(out, pool[idx].Clone())
		fracs[idx] = 0
	}
	return out
}

// TestStochasticRemainderIndicesMatchClones: the selected indices are the
// sources of the clones the copying selection returned, in order, and both
// consume the same draws — on pools that keep their fractions on the stack
// and pools that do not, with zero, uniform and all-zero fitness.
func TestStochasticRemainderIndicesMatchClones(t *testing.T) {
	rng := xrand.New(4)
	for trial := 0; trial < 300; trial++ {
		size := 1 + rng.Intn(150)
		pool := make([]Individual, size)
		for i := range pool {
			pool[i] = Individual{Bits: bitset.New(8), Cost: int64(i)}
			switch trial % 3 {
			case 0:
				pool[i].Fitness = rng.Float64()
			case 1:
				if rng.Bool(0.5) {
					pool[i].Fitness = float64(rng.Intn(4))
				}
			}
		}
		count := rng.Intn(2 * size)
		seed := rng.Uint64()
		a, b := xrand.New(seed), xrand.New(seed)
		idx := StochasticRemainder(nil, pool, count, a)
		clones := cloningStochasticRemainder(pool, count, b)
		if len(idx) != len(clones) {
			t.Fatalf("trial %d: %d indices, %d clones", trial, len(idx), len(clones))
		}
		for j, i := range idx {
			if clones[j].Cost != int64(i) {
				t.Fatalf("trial %d: pick %d is pool[%d], the clone came from pool[%d]", trial, j, i, clones[j].Cost)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("trial %d: the two selections consumed different draws", trial)
		}
	}
}

func TestRouletteIndex(t *testing.T) {
	rng := xrand.New(5)
	counts := make([]int, 3)
	for i := 0; i < 30000; i++ {
		counts[rouletteIndex([]float64{1, 2, 7}, rng)]++
	}
	for i, want := range []float64{0.1, 0.2, 0.7} {
		got := float64(counts[i]) / 30000
		if math.Abs(got-want) > 0.02 {
			t.Errorf("index %d frequency %.3f, want ~%.1f", i, got, want)
		}
	}
	// All-zero weights: uniform fallback, must not panic.
	idx := rouletteIndex([]float64{0, 0}, rng)
	if idx < 0 || idx > 1 {
		t.Fatalf("zero-weight roulette index %d", idx)
	}
}

func TestTwoPointPreservesMultiset(t *testing.T) {
	rng := xrand.New(6)
	for trial := 0; trial < 200; trial++ {
		a, b := bitset.New(100), bitset.New(100)
		for i := 0; i < 100; i++ {
			if rng.Bool(0.5) {
				a.Set(i)
			}
			if rng.Bool(0.5) {
				b.Set(i)
			}
		}
		wantPerBit := make([]int, 100)
		for i := 0; i < 100; i++ {
			if a.Test(i) {
				wantPerBit[i]++
			}
			if b.Test(i) {
				wantPerBit[i]++
			}
		}
		spans := TwoPoint(nil, a, b, rng)
		if len(spans) == 0 || len(spans) > 2 {
			t.Fatalf("TwoPoint returned %d spans", len(spans))
		}
		for i := 0; i < 100; i++ {
			got := 0
			if a.Test(i) {
				got++
			}
			if b.Test(i) {
				got++
			}
			if got != wantPerBit[i] {
				t.Fatalf("trial %d: bit %d multiset changed", trial, i)
			}
		}
	}
}

func TestOnePointPreservesMultiset(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 200; trial++ {
		a, b := bitset.New(40), bitset.New(40)
		for i := 0; i < 40; i++ {
			if rng.Bool(0.3) {
				a.Set(i)
			}
			if rng.Bool(0.7) {
				b.Set(i)
			}
		}
		before := a.Count() + b.Count()
		span := OnePoint(a, b, rng)
		if span.From < 0 || span.To > 40 {
			t.Fatalf("span %+v out of range", span)
		}
		if a.Count()+b.Count() != before {
			t.Fatal("one-point crossover changed total bit count")
		}
	}
}

func TestMutateBitsRate(t *testing.T) {
	rng := xrand.New(8)
	const length, trials = 1000, 200
	rate := 0.01
	flips := 0
	for trial := 0; trial < trials; trial++ {
		MutateBits(length, rate, rng, func(i int) {
			if i < 0 || i >= length {
				t.Fatalf("flip index %d out of range", i)
			}
			flips++
		})
	}
	mean := float64(flips) / trials
	if math.Abs(mean-10) > 1.5 {
		t.Fatalf("mean flips per chromosome %v, want ~10", mean)
	}
}

func TestMutateBitsEdgeRates(t *testing.T) {
	count := 0
	MutateBits(100, 0, xrand.New(9), func(i int) { count++ })
	if count != 0 {
		t.Fatal("rate 0 flipped bits")
	}
	MutateBits(100, 1, xrand.New(9), func(i int) { count++ })
	if count != 100 {
		t.Fatalf("rate 1 flipped %d bits, want 100", count)
	}
	MutateBits(0, 0.5, xrand.New(9), func(i int) { t.Fatal("flip on empty chromosome") })
}

func TestMutateBitsTinyRate(t *testing.T) {
	// Regression: for rates below ~2^-53, ln(1-rate) evaluates to +0 and
	// the geometric sample was ln(U)/+0 = -Inf, whose int conversion
	// produced a negative skip and a bitset panic in flip.
	rng := xrand.New(11)
	for _, rate := range []float64{1e-300, math.SmallestNonzeroFloat64, 1e-20} {
		for trial := 0; trial < 100; trial++ {
			MutateBits(64, rate, rng, func(i int) {
				if i < 0 || i >= 64 {
					t.Fatalf("rate %g: flip index %d out of range", rate, i)
				}
			})
		}
	}
}

// nextGeometric is one geometricSkip draw at rate.
func nextGeometric(rate float64, limit int, rng *xrand.Source) int {
	return geometricSkip(math.Log(1-rate), limit, rng)
}

func TestNextGeometricClamped(t *testing.T) {
	rng := xrand.New(12)
	for i := 0; i < 1000; i++ {
		// Degenerate rate: the ideal sample is infinite, the clamp must
		// return exactly limit ("no flip in range").
		if g := nextGeometric(1e-300, 50, rng); g != 50 {
			t.Fatalf("tiny-rate sample %d, want clamp to 50", g)
		}
		if g := nextGeometric(0.5, 50, rng); g < 0 || g > 50 {
			t.Fatalf("sample %d outside [0, 50]", g)
		}
	}
}

func TestRouletteIndexDegenerateWeights(t *testing.T) {
	rng := xrand.New(13)
	// A NaN (or negative) total used to make every comparison false and
	// silently return the last index; now degenerate-only weights fall
	// back to a uniform pick.
	counts := make([]int, 3)
	for i := 0; i < 3000; i++ {
		counts[rouletteIndex([]float64{math.NaN(), -1, math.NaN()}, rng)]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Errorf("degenerate weights never picked index %d", i)
		}
	}
	// A NaN weight must not absorb probability mass from valid ones.
	for i := 0; i < 1000; i++ {
		if idx := rouletteIndex([]float64{math.NaN(), 1, math.Inf(-1)}, rng); idx != 1 {
			t.Fatalf("the only valid weight lost the roulette to index %d", idx)
		}
	}
}

func TestMutateBitsVisitsAscendingDistinct(t *testing.T) {
	rng := xrand.New(10)
	for trial := 0; trial < 50; trial++ {
		last := -1
		MutateBits(500, 0.05, rng, func(i int) {
			if i <= last {
				t.Fatalf("flip order not strictly ascending: %d after %d", i, last)
			}
			last = i
		})
	}
}
