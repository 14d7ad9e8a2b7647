package workload

import (
	"fmt"
	"math"

	"drp/internal/core"
	"drp/internal/xrand"
)

// ZipfSpec generates instances with Zipf-distributed object popularity —
// the skewed access patterns measured for web workloads (Arlitt &
// Williamson 1997), which the paper's uniform U(1,40) reads deliberately
// flatten. It reuses every other knob of Spec; only the read generation
// changes: object k's share of the total read volume is proportional to
// 1/(k+1)^Skew, and each object's reads are spread over sites uniformly.
type ZipfSpec struct {
	Spec
	// Skew is the Zipf exponent s ≥ 0 (0 = uniform popularity; web traces
	// are commonly fit around 0.6–1.0).
	Skew float64
}

// NewZipfSpec returns a ZipfSpec with the paper's base constants and the
// given skew.
func NewZipfSpec(sites, objects int, u, c, skew float64) ZipfSpec {
	return ZipfSpec{Spec: NewSpec(sites, objects, u, c), Skew: skew}
}

// GenerateZipf builds a random instance with Zipf-skewed object popularity.
// The aggregate read volume matches the uniform generator's expectation
// (M·N·(ReadMin+ReadMax)/2) so savings numbers are comparable across the
// two generators.
func GenerateZipf(spec ZipfSpec, seed uint64) (*core.Problem, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if !(spec.Skew >= 0) || math.IsInf(spec.Skew, 1) {
		return nil, fmt.Errorf("workload: Zipf skew %v is negative or not finite", spec.Skew)
	}
	m, n := spec.Sites, spec.Objects
	return generate(spec.Spec, seed, func(rng *xrand.Source) [][]int64 {
		// Popularity weights follow a Zipf law over a random object
		// ranking, so the hot objects are not always the low object ids.
		rank := rng.Perm(n)
		weights := make([]float64, n)
		var weightSum float64
		for k := 0; k < n; k++ {
			weights[k] = 1 / math.Pow(float64(rank[k]+1), spec.Skew)
			weightSum += weights[k]
		}

		totalVolume := float64(m) * float64(n) * float64(ReadMin+ReadMax) / 2
		reads := make([][]int64, m)
		for i := range reads {
			reads[i] = make([]int64, n)
		}
		for k := 0; k < n; k++ {
			objReads := int64(totalVolume*weights[k]/weightSum + 0.5)
			for r := int64(0); r < objReads; r++ {
				reads[rng.Intn(m)][k]++
			}
		}
		return reads
	})
}
