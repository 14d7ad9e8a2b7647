// Package workload generates DRP instances following Section 6.1 of the
// paper, and the daytime pattern shifts of Section 6.3 used to evaluate the
// adaptive algorithm.
//
// The paper's generator, reproduced exactly:
//
//   - every pair of sites is linked with cost U(1,10) (hop counts); C(i,j)
//     is the shortest path over those links;
//   - each object's primary copy lands on a uniformly random site;
//   - reads r_k(i) ~ U(1,40) for every (site, object) pair;
//   - each object's update total is U% of its read total, smeared by
//     U(T/2, 3T/2), and assigned to uniformly random sites one by one;
//   - object sizes are uniform with mean 35 (here U(1,69));
//   - site capacities are U(C·S/2, 3C·S/2) where S = Σ o_k and C is the
//     capacity ratio, grown where a site's primaries need more.
//
// Generate and GenerateZipf draw these steps from one stream in this order
// and differ only in the read step. Capacities is the capacity step on its
// own, shared with the sparse generator.
package workload

import (
	"fmt"

	"drp/internal/core"
	"drp/internal/netsim"
	"drp/internal/xrand"
)

// The Section 6.1 constants every generated instance shares.
const (
	ReadMin, ReadMax = 1, 40 // per-(site, object) reads r_k(i) ~ U(ReadMin, ReadMax)
	LinkMin, LinkMax = 1, 10 // per-link cost ~ U(LinkMin, LinkMax)
	SizeMean         = 35    // object sizes ~ U(1, 2·SizeMean−1)
)

// Spec parameterises the Section 6.1 generator: the instance's shape and
// the two ratios the paper sweeps. Everything else is a constant above.
type Spec struct {
	Sites   int // M
	Objects int // N

	UpdateRatio   float64 // U: update total as a fraction of read total (paper: 0.02..0.10)
	CapacityRatio float64 // C: site capacity as a fraction of Σ o_k (paper: 0.10..0.30)
}

// NewSpec returns a Spec for M sites and N objects, update ratio u and
// capacity ratio c (both as fractions, e.g. 0.05 and 0.15).
func NewSpec(sites, objects int, u, c float64) Spec {
	return Spec{Sites: sites, Objects: objects, UpdateRatio: u, CapacityRatio: c}
}

func (s Spec) validate() error {
	switch {
	case s.Sites <= 0:
		return fmt.Errorf("workload: need at least one site, got %d", s.Sites)
	case s.Objects <= 0:
		return fmt.Errorf("workload: need at least one object, got %d", s.Objects)
	}
	return nil
}

// Generate builds one random instance. Identical seeds produce identical
// instances.
func Generate(spec Spec, seed uint64) (*core.Problem, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	return generate(spec, seed, func(rng *xrand.Source) [][]int64 {
		reads := make([][]int64, spec.Sites)
		for i := range reads {
			reads[i] = make([]int64, spec.Objects)
			for k := range reads[i] {
				reads[i][k] = int64(rng.IntRange(ReadMin, ReadMax))
			}
		}
		return reads
	})
}

// generate draws one instance from one stream, in a fixed order: network,
// primaries, reads, update totals, sizes, capacities. drawReads is the
// read step, the only one the generators differ in; it returns the M×N
// read matrix.
func generate(spec Spec, seed uint64, drawReads func(*xrand.Source) [][]int64) (*core.Problem, error) {
	rng := xrand.New(seed)
	m, n := spec.Sites, spec.Objects

	dist, err := netsim.CompleteUniform(m, LinkMin, LinkMax, rng).Distances()
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}

	primaries := make([]int, n)
	for k := range primaries {
		primaries[k] = rng.Intn(m)
	}

	reads := drawReads(rng)

	totals := make([]int64, n)
	var reqs int64
	for _, row := range reads {
		for k, r := range row {
			totals[k] += r
			reqs += r
		}
	}
	// Each object's update total is drawn up to 1.5·U times its reads.
	if err := checkRatio("update", spec.UpdateRatio, 1.5*float64(reqs), maxDraws); err != nil {
		return nil, err
	}
	writes := make([][]int64, m)
	for i := range writes {
		writes[i] = make([]int64, n)
	}
	for k, total := range totals {
		for u := smear(rng, spec.UpdateRatio*float64(total)); u > 0; u-- {
			writes[rng.Intn(m)][k]++
		}
	}

	sizes := make([]int64, n)
	for k := range sizes {
		sizes[k] = int64(rng.IntRange(1, 2*SizeMean-1))
	}

	caps, err := Capacities(m, spec.CapacityRatio, sizes, primaries, rng)
	if err != nil {
		return nil, err
	}

	return core.NewProblem(core.Config{
		Sizes:      sizes,
		Capacities: caps,
		Primaries:  primaries,
		Reads:      reads,
		Writes:     writes,
		Dist:       dist,
	})
}

// Capacities draws the site capacities of Section 6.1 from rng: site by
// site U(C·S/2, 3C·S/2) for capacity ratio C and S = Σ sizes, each grown
// to the primaries the site must host, so the primaries-only scheme fits
// by construction. It rejects a ratio whose draws do not fit an int64.
func Capacities[P int | int32](sites int, ratio float64, sizes []int64, primaries []P, rng *xrand.Source) ([]int64, error) {
	var total int64
	for _, o := range sizes {
		total += o
	}
	if err := checkRatio("capacity", ratio, 1.5*float64(total), 0x1p63); err != nil {
		return nil, err
	}
	caps := make([]int64, sites) // each site's primary load, then its capacity
	for k, sp := range primaries {
		caps[sp] += sizes[k]
	}
	for i := range caps {
		caps[i] = max(smear(rng, ratio*float64(total)), caps[i])
	}
	return caps, nil
}

// smear draws U(x/2, 3x/2) rounded to the nearest integer: the paper's
// spread of update totals around U% of reads and of capacities around C·S.
func smear(rng *xrand.Source, x float64) int64 {
	return int64(rng.FloatRange(x/2, 3*x/2) + 0.5)
}

// maxDraws bounds the requests one call adds to a pattern, one RNG draw
// each: 2^31, some 1 700 times the most any preset, golden or CI input
// draws (1.22 million, the paper preset's adaptive cells with every object
// changing), and about 15 s of drawing. Past it a finite ratio could run
// for hours.
const maxDraws = 1 << 31

// checkRatio rejects a ratio whose product with reqs, the most a call may
// produce at ratio 1, reaches limit: a negative, NaN or infinite ratio, or
// one that would draw more than maxDraws requests or overflow an int64.
func checkRatio(name string, ratio, reqs, limit float64) error {
	if ratio >= 0 && ratio*reqs < limit {
		return nil
	}
	return fmt.Errorf("workload: %s ratio %v is negative, not finite, or too large: %v × %g must be below %g", name, ratio, ratio, reqs, limit)
}
