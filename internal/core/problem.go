// Package core defines the Data Replication Problem (DRP) of Loukopoulos &
// Ahmad (ICDCS 2000): the problem instance (sites, objects, read/write
// patterns, primary copies, capacities, transfer costs), replication
// schemes, and the exact network-transfer-cost (NTC) model of Section 2 —
// the objective function D (eq. 4), the greedy benefit value B (eq. 5) and
// the adaptive replica-benefit estimator E (eq. 6).
//
// Everything else in this repository (the SRA greedy, the GRA and AGRA
// genetic algorithms, baselines, the cluster simulator and the experiment
// harness) is expressed in terms of this package.
package core

import (
	"fmt"
	"math/bits"
	"sync"

	"drp/internal/netsim"
)

// Problem is an immutable DRP instance.
//
// Indices: sites are 0..M-1, objects are 0..N-1. Read/write counts are laid
// out site-major: reads[i*N+k] is r_k(i), the number of reads issued by site
// i for object k during the measurement period.
type Problem struct {
	m, n    int
	size    []int64 // o_k, object sizes in storage units
	cap     []int64 // s(i), site capacities in storage units
	primary []int   // SP_k, primary site per object
	reads   []int64 // site-major r_k(i)
	writes  []int64 // site-major w_k(i)
	dist    *netsim.DistMatrix

	// Derived caches, computed once in NewProblem.
	totalReads  []int64   // Σ_i r_k(i) per object
	totalWrites []int64   // Σ_i w_k(i) per object
	readsT      []int64   // object-major r_k(i): readsT[k*M+i], the eq. 4 kernel's read row
	ship        []int64   // Σ_i w_k(i)·C(i,SP_k) per object: every site shipping its writes
	propWeight  []float64 // Σ_x C(i,x) / mean row sum, per site (eq. 6 denominator)
	dPrime      int64     // D of the primaries-only allocation
	vPrime      []int64   // per-object NTC of the primaries-only allocation

	// evals recycles the (unmetered) evaluators behind Scheme.Cost,
	// ObjectCost and CostTerms, so pricing a scheme does not allocate scratch
	// per call and stays safe from several goroutines at once.
	evals sync.Pool
}

// Config carries the raw inputs of a DRP instance into NewProblem.
type Config struct {
	Sizes      []int64            // o_k for each of the N objects (positive)
	Capacities []int64            // s(i) for each of the M sites (non-negative)
	Primaries  []int              // SP_k for each object
	Reads      [][]int64          // Reads[i][k] = r_k(i)
	Writes     [][]int64          // Writes[i][k] = w_k(i)
	Dist       *netsim.DistMatrix // validated all-pairs costs C(i,j)
}

// NewProblem validates cfg and builds an instance with all derived caches.
func NewProblem(cfg Config) (*Problem, error) {
	if cfg.Dist == nil {
		return nil, fmt.Errorf("core: nil distance matrix")
	}
	m := cfg.Dist.Sites()
	n := len(cfg.Sizes)
	if n == 0 {
		return nil, fmt.Errorf("core: no objects")
	}
	if len(cfg.Capacities) != m {
		return nil, fmt.Errorf("core: %d capacities for %d sites", len(cfg.Capacities), m)
	}
	if len(cfg.Primaries) != n {
		return nil, fmt.Errorf("core: %d primaries for %d objects", len(cfg.Primaries), n)
	}
	if len(cfg.Reads) != m || len(cfg.Writes) != m {
		return nil, fmt.Errorf("core: read/write matrices must have %d site rows", m)
	}
	p := &Problem{
		m:       m,
		n:       n,
		size:    append([]int64(nil), cfg.Sizes...),
		cap:     append([]int64(nil), cfg.Capacities...),
		primary: append([]int(nil), cfg.Primaries...),
		reads:   make([]int64, m*n),
		writes:  make([]int64, m*n),
		dist:    cfg.Dist,
	}
	for k, sz := range p.size {
		if sz <= 0 {
			return nil, fmt.Errorf("core: object %d has non-positive size %d", k, sz)
		}
	}
	for i, c := range p.cap {
		if c < 0 {
			return nil, fmt.Errorf("core: site %d has negative capacity %d", i, c)
		}
	}
	// Σ o_k must fit int64: every storage-accounting quantity (per-site
	// usage, primary loads) is bounded by it, so this one checked sum makes
	// all later size arithmetic overflow-free.
	var sizeSum int64
	for k, sz := range p.size {
		var ok bool
		if sizeSum, ok = addNonNeg(sizeSum, sz); !ok {
			return nil, fmt.Errorf("core: object sizes overflow int64 at object %d", k)
		}
	}
	primaryUse := make([]int64, m)
	for k, sp := range p.primary {
		if sp < 0 || sp >= m {
			return nil, fmt.Errorf("core: object %d has out-of-range primary %d", k, sp)
		}
		primaryUse[sp] += p.size[k]
	}
	// The primary-copy constraint forces X[SP_k][k] = 1, so an instance
	// whose primaries overflow a site admits no feasible scheme at all.
	for i, use := range primaryUse {
		if use > p.cap[i] {
			return nil, fmt.Errorf("core: infeasible instance: primaries at site %d need %d units, capacity is %d", i, use, p.cap[i])
		}
	}
	for i := 0; i < m; i++ {
		if len(cfg.Reads[i]) != n || len(cfg.Writes[i]) != n {
			return nil, fmt.Errorf("core: site %d read/write rows must have %d objects", i, n)
		}
		for k := 0; k < n; k++ {
			r, w := cfg.Reads[i][k], cfg.Writes[i][k]
			if r < 0 || w < 0 {
				return nil, fmt.Errorf("core: negative read/write count at site %d object %d", i, k)
			}
			p.reads[i*n+k] = r
			p.writes[i*n+k] = w
		}
	}
	if err := p.buildCaches(); err != nil {
		return nil, err
	}
	return p, nil
}

// addNonNeg returns a+b and whether the sum of the two non-negative values
// stayed within int64.
func addNonNeg(a, b int64) (int64, bool) {
	s := a + b
	return s, s >= a
}

// mulNonNeg returns a·b and whether the product of the two non-negative
// values stayed within int64: its 128-bit form has no high word and no
// sign bit.
func mulNonNeg(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	return int64(lo), hi == 0 && int64(lo) >= 0
}

// NTCBoundOverflow is the worst-case NTC gate every problem model passes at
// construction: any scheme's eq. 4 cost is at most
// Σ_k (1 + Rtot_k + (M+1)·Wtot_k)·o_k·maxC (reads from the farthest
// replica, every site a replicator paying the full update fan-in, plus
// one object-transfer term covering migration accounting). If that bound
// fits int64, every cost the evaluators, delta evaluators and cluster
// simulator can compute fits too — so they never need per-term checks. It
// returns the first object at which the bound leaves int64, or -1 when it
// fits; sizes and per-object read/write totals must be non-negative.
func NTCBoundOverflow(dist *netsim.DistMatrix, size, totalReads, totalWrites []int64) int {
	m := dist.Sites()
	var maxC int64
	for i := 0; i < m; i++ {
		for _, c := range dist.Row(i) {
			if c > maxC {
				maxC = c
			}
		}
	}
	var bound int64
	for k, sz := range size {
		fanIn, ok := mulNonNeg(int64(m)+1, totalWrites[k])
		if !ok {
			return k
		}
		traffic, ok := addNonNeg(totalReads[k], fanIn)
		if !ok {
			return k
		}
		traffic, ok = addNonNeg(traffic, 1)
		if !ok {
			return k
		}
		vol, ok := mulNonNeg(traffic, sz)
		if !ok {
			return k
		}
		cost, ok := mulNonNeg(vol, maxC)
		if !ok {
			return k
		}
		if bound, ok = addNonNeg(bound, cost); !ok {
			return k
		}
	}
	return -1
}

func (p *Problem) buildCaches() error {
	p.totalReads = make([]int64, p.n)
	p.totalWrites = make([]int64, p.n)
	for i := 0; i < p.m; i++ {
		row := p.reads[i*p.n : (i+1)*p.n]
		wrow := p.writes[i*p.n : (i+1)*p.n]
		for k := 0; k < p.n; k++ {
			var ok1, ok2 bool
			p.totalReads[k], ok1 = addNonNeg(p.totalReads[k], row[k])
			p.totalWrites[k], ok2 = addNonNeg(p.totalWrites[k], wrow[k])
			if !ok1 || !ok2 {
				return fmt.Errorf("core: read/write totals for object %d overflow int64", k)
			}
		}
	}
	if k := NTCBoundOverflow(p.dist, p.size, p.totalReads, p.totalWrites); k >= 0 {
		return errMagnitude(k)
	}
	mean := p.dist.MeanRowSum()
	p.propWeight = make([]float64, p.m)
	for i := 0; i < p.m; i++ {
		if mean > 0 {
			p.propWeight[i] = float64(p.dist.RowSum(i)) / mean
		} else {
			// Degenerate single-site network: neutral weight.
			p.propWeight[i] = 1
		}
	}
	// The kernel's tables (cost.go), filled site by site so the site-major
	// patterns are read in storage order. The magnitude gate above bounds
	// every ship[k] by Wtot_k·maxC.
	p.readsT = make([]int64, p.m*p.n)
	p.ship = make([]int64, p.n)
	for i := 0; i < p.m; i++ {
		toSite := p.dist.Row(i)
		row := p.reads[i*p.n : (i+1)*p.n]
		wrow := p.writes[i*p.n : (i+1)*p.n]
		for k, sp := range p.primary {
			p.readsT[k*p.m+i] = row[k]
			p.ship[k] += wrow[k] * toSite[sp]
		}
	}
	// V′_k is the kernel's price of the replicator set {SP_k}, which is how
	// it reads an empty list.
	p.vPrime = make([]int64, p.n)
	e := NewEvaluator(p)
	for k := range p.vPrime {
		p.vPrime[k] = e.objectTerms(k, nil).Total()
		p.dPrime += p.vPrime[k]
	}
	p.evals.New = func() any { return NewEvaluator(p) }
	return nil
}

func errMagnitude(k int) error {
	return fmt.Errorf("core: traffic volume of object %d overflows the int64 cost range", k)
}

// Sites returns M, the number of sites.
func (p *Problem) Sites() int { return p.m }

// Objects returns N, the number of objects.
func (p *Problem) Objects() int { return p.n }

// Size returns o_k.
func (p *Problem) Size(k int) int64 { return p.size[k] }

// Capacity returns s(i).
func (p *Problem) Capacity(i int) int64 { return p.cap[i] }

// Primary returns SP_k.
func (p *Problem) Primary(k int) int { return p.primary[k] }

// Reads returns r_k(i).
func (p *Problem) Reads(i, k int) int64 { return p.reads[i*p.n+k] }

// Writes returns w_k(i).
func (p *Problem) Writes(i, k int) int64 { return p.writes[i*p.n+k] }

// TotalReads returns Σ_i r_k(i).
func (p *Problem) TotalReads(k int) int64 { return p.totalReads[k] }

// TotalWrites returns Σ_i w_k(i), the update fan-in each replica of k pays.
func (p *Problem) TotalWrites(k int) int64 { return p.totalWrites[k] }

// Cost returns the per-unit transfer cost C(i,j).
func (p *Problem) Cost(i, j int) int64 { return p.dist.At(i, j) }

// Dist exposes the distance matrix (read-only by convention).
func (p *Problem) Dist() *netsim.DistMatrix { return p.dist }

// DPrime returns the NTC of the initial allocation in which each object
// exists only at its primary site. It is the paper's normaliser for both
// the GRA fitness and the reported "% NTC savings".
func (p *Problem) DPrime() int64 { return p.dPrime }

// VPrime returns the per-object NTC of the primaries-only allocation.
func (p *Problem) VPrime(k int) int64 { return p.vPrime[k] }

// WithPatterns returns a copy of p sharing the network, sizes, capacities
// and primaries but carrying new read/write patterns. It is how the
// adaptive experiments (Section 6.3) model "the daytime pattern changed":
// same infrastructure, new demand.
func (p *Problem) WithPatterns(reads, writes [][]int64) (*Problem, error) {
	caps := append([]int64(nil), p.cap...)
	return NewProblem(Config{
		Sizes:      p.size,
		Capacities: caps,
		Primaries:  p.primary,
		Reads:      reads,
		Writes:     writes,
		Dist:       p.dist,
	})
}

// ReadMatrix returns a fresh [][]int64 copy of the read pattern, for use
// with WithPatterns-style mutation.
func (p *Problem) ReadMatrix() [][]int64 { return p.matrixCopy(p.reads) }

// WriteMatrix returns a fresh [][]int64 copy of the write pattern.
func (p *Problem) WriteMatrix() [][]int64 { return p.matrixCopy(p.writes) }

func (p *Problem) matrixCopy(flat []int64) [][]int64 {
	out := make([][]int64, p.m)
	for i := 0; i < p.m; i++ {
		out[i] = append([]int64(nil), flat[i*p.n:(i+1)*p.n]...)
	}
	return out
}
