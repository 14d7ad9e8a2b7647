// Package ga provides the genetic-search building blocks shared by the GRA
// and AGRA solvers: fitness-proportionate selection by stochastic remainder,
// roulette wheels, one- and two-point crossover over bitsets, and sparse
// bit-flip mutation.
package ga

import (
	"math"
	"slices"

	"drp/internal/bitset"
	"drp/internal/xrand"
)

// Individual pairs a chromosome with its cached evaluation. Fitness must be
// non-negative for the proportionate selection operators.
type Individual struct {
	Bits    *bitset.Set
	Cost    int64
	Fitness float64
	// Objects, when the solver keeps it (GRA does), holds the per-object
	// terms V_k whose sum is Cost, so offspring can inherit the terms of the
	// objects they did not change; nil otherwise.
	Objects []int64
	// Usage, when the solver keeps it (GRA does), holds the storage each
	// site's gene of Bits consumes, so offspring check capacity from their
	// parents' usage instead of walking every set bit; nil otherwise.
	Usage []int64
}

// Clone deep-copies the individual.
func (ind Individual) Clone() Individual {
	return Individual{Bits: ind.Bits.Clone(), Cost: ind.Cost, Fitness: ind.Fitness,
		Objects: slices.Clone(ind.Objects), Usage: slices.Clone(ind.Usage)}
}

// CopyFrom overwrites ind's chromosome and evaluation with src's, keeping
// ind's storage: the two must have the same shape (Objects and Usage both
// nil, or as long as src's).
func (ind *Individual) CopyFrom(src Individual) {
	ind.Bits.CopyFrom(src.Bits)
	ind.Cost, ind.Fitness = src.Cost, src.Fitness
	copy(ind.Objects, src.Objects)
	copy(ind.Usage, src.Usage)
}

// Best returns the index of the highest-fitness individual, or -1 for an
// empty population.
func Best(pop []Individual) int {
	best := -1
	for i := range pop {
		if best < 0 || pop[i].Fitness > pop[best].Fitness {
			best = i
		}
	}
	return best
}

// Worst returns the index of the lowest-fitness individual, or -1 for an
// empty population.
func Worst(pop []Individual) int {
	worst := -1
	for i := range pop {
		if worst < 0 || pop[i].Fitness < pop[worst].Fitness {
			worst = i
		}
	}
	return worst
}

// MeanFitness returns the average fitness of the population.
func MeanFitness(pop []Individual) float64 {
	if len(pop) == 0 {
		return 0
	}
	total := 0.0
	for i := range pop {
		total += pop[i].Fitness
	}
	return total / float64(len(pop))
}

// StochasticRemainder selects count offspring from pool proportionally to
// fitness using the stochastic remainder technique: each individual first
// receives floor(count·f_i/Σf) deterministic copies; the remaining slots are
// filled by a roulette wheel over the fractional parts. This bounds the
// sampling error that plain roulette-wheel selection (Holland's SGA)
// suffers from. If all fitness values are zero the selection is uniform.
//
// It appends the selected pool indices to dst and returns the extended
// slice; the caller copies or clones pool[i] for each, as its variation
// operators require.
func StochasticRemainder(dst []int, pool []Individual, count int, rng *xrand.Source) []int {
	if len(pool) == 0 || count == 0 {
		return dst
	}
	total := 0.0
	for i := range pool {
		total += pool[i].Fitness
	}
	if total <= 0 {
		for range count {
			dst = append(dst, rng.Intn(len(pool)))
		}
		return dst
	}
	// Small pools (AGRA's micro-GA) keep their fractions on the stack.
	var buf [64]float64
	fracs := buf[:0]
	if len(pool) > len(buf) {
		fracs = make([]float64, 0, len(pool))
	}
	selected := 0
	for i := range pool {
		expected := float64(count) * pool[i].Fitness / total
		copies := int(expected)
		fracs = append(fracs, expected-float64(copies))
		for c := 0; c < copies && selected < count; c++ {
			dst = append(dst, i)
			selected++
		}
	}
	for ; selected < count; selected++ {
		idx := rouletteIndex(fracs, rng)
		dst = append(dst, idx)
		// Each fractional part buys at most one extra offspring.
		fracs[idx] = 0
	}
	return dst
}

// rouletteIndex picks an index with probability proportional to the
// non-negative weights. NaN and negative weights are treated as zero — a
// NaN in the running total would otherwise poison every comparison and
// silently bias the pick to the last index. All-zero (or otherwise
// degenerate) totals fall back to a uniform pick.
func rouletteIndex(weights []float64, rng *xrand.Source) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 || math.IsInf(total, 0) {
		return rng.Intn(len(weights))
	}
	spin := rng.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w > 0 {
			acc += w
		}
		if spin < acc {
			return i
		}
	}
	return len(weights) - 1
}

// CrossSpan is the bit range [From, To) exchanged by a crossover, reported
// so domain-specific repair (gene validity in GRA) knows which genes were
// cut.
type CrossSpan struct {
	From, To int
}

// TwoPoint performs the paper's two-point crossover on a and b in place:
// two cut points are drawn, and with equal probability either the segment
// between them or the two outer fractions are swapped. It appends the
// swapped spans (one or two) to dst and returns the extended slice.
func TwoPoint(dst []CrossSpan, a, b *bitset.Set, rng *xrand.Source) []CrossSpan {
	n := a.Len()
	c1 := rng.Intn(n + 1)
	c2 := rng.Intn(n + 1)
	if c1 > c2 {
		c1, c2 = c2, c1
	}
	if rng.Bool(0.5) {
		a.SwapRange(b, c1, c2)
		return append(dst, CrossSpan{From: c1, To: c2})
	}
	a.SwapRange(b, 0, c1)
	a.SwapRange(b, c2, n)
	return append(dst, CrossSpan{From: 0, To: c1}, CrossSpan{From: c2, To: n})
}

// OnePoint performs single-point crossover in place, swapping with equal
// probability the left or the right part — the AGRA variant. It returns the
// swapped span.
func OnePoint(a, b *bitset.Set, rng *xrand.Source) CrossSpan {
	n := a.Len()
	cut := rng.Intn(n + 1)
	if rng.Bool(0.5) {
		a.SwapRange(b, 0, cut)
		return CrossSpan{From: 0, To: cut}
	}
	a.SwapRange(b, cut, n)
	return CrossSpan{From: cut, To: n}
}

// MutateBits visits each bit index with independent probability rate and
// calls flip for it. Sparse rates use geometric skipping so the cost is
// proportional to the number of flipped bits, not the chromosome length.
func MutateBits(length int, rate float64, rng *xrand.Source, flip func(i int)) {
	if rate <= 0 || length == 0 {
		return
	}
	if rate >= 1 {
		for i := 0; i < length; i++ {
			flip(i)
		}
		return
	}
	logMiss := math.Log(1 - rate)
	i := geometricSkip(logMiss, length, rng)
	for i < length {
		flip(i)
		i += 1 + geometricSkip(logMiss, length, rng)
	}
}

// geometricSkip returns the number of Bernoulli(rate) failures before the
// next success, clamped to limit (any sample >= limit ends the caller's
// skip loop, so the clamp preserves the distribution exactly). It takes
// logMiss = ln(1−rate), which MutateBits computes once per call rather
// than once per draw.
func geometricSkip(logMiss float64, limit int, rng *xrand.Source) int {
	// Inverse-CDF sampling: floor(ln U / ln(1-p)).
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	g := math.Log(u) / logMiss
	// For rates below ~2^-53, 1-rate rounds to 1 and the sample is -Inf
	// (ln U / +0); near rate 1 it can exceed the int range. A raw int
	// conversion of either is platform-defined and once produced negative
	// skip counts, panicking the bitset. Anything non-finite, negative or
	// past the limit means "no flip in range".
	if !(g >= 0) || g >= float64(limit) {
		return limit
	}
	return int(g)
}
