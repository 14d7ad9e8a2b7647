package sparse

import (
	"fmt"
	"slices"

	"drp/internal/netsim"
	"drp/internal/workload"
	"drp/internal/xrand"
)

// WorkloadSpec parameterises the sparse instance generator: the Section 6.1
// constants (per-site read counts U(1,40), link costs U(1,10), object sizes
// U(1,69), capacities around a ratio of Σ o_k) restricted to the
// few-accessing-sites structure of "Optimal Data Placement on Networks With
// Constant Number of Clients" — each object is read from at most
// ReaderSites and written from at most WriterSites distinct sites, however
// many objects there are. That bounded nnz per object is what makes the
// CSR representation and candidate pruning pay at N=1e6.
type WorkloadSpec struct {
	Sites   int // M
	Objects int // N

	ReaderSites int // per-object distinct reader-site count ~ U(1, ReaderSites)
	WriterSites int // per-object distinct writer-site count ~ U(0, WriterSites)

	ReadMin, ReadMax   int // per reader-site counts, paper: 1..40
	WriteMin, WriteMax int // per writer-site counts (≈ the paper's 2–10% update ratios)
	LinkMin, LinkMax   int // per-link cost, paper: 1..10
	SizeMean           int // object size mean, paper: 35 (sizes U(1, 2·mean−1))

	CapacityRatio float64 // site capacity as a fraction of Σ o_k
}

// NewWorkloadSpec returns the defaults for M sites and N objects: ~10
// reader sites and ~3 writer sites per object, read counts U(1,40), write
// counts U(1,4) (≈5% update ratio), links U(1,10), size mean 35, capacity
// ratio 0.15 — the mid-points of the paper's sweeps.
func NewWorkloadSpec(sites, objects int) WorkloadSpec {
	readers := 10
	if readers > sites {
		readers = sites
	}
	writers := 3
	if writers > sites {
		writers = sites
	}
	return WorkloadSpec{
		Sites:         sites,
		Objects:       objects,
		ReaderSites:   readers,
		WriterSites:   writers,
		ReadMin:       workload.ReadMin,
		ReadMax:       workload.ReadMax,
		WriteMin:      1,
		WriteMax:      4,
		LinkMin:       workload.LinkMin,
		LinkMax:       workload.LinkMax,
		SizeMean:      workload.SizeMean,
		CapacityRatio: 0.15,
	}
}

func (s WorkloadSpec) validate() error {
	switch {
	case s.Sites <= 0:
		return fmt.Errorf("sparse: need at least one site, got %d", s.Sites)
	case s.Objects <= 0:
		return fmt.Errorf("sparse: need at least one object, got %d", s.Objects)
	case s.ReaderSites < 1 || s.ReaderSites > s.Sites:
		return fmt.Errorf("sparse: reader-site bound %d outside [1,%d]", s.ReaderSites, s.Sites)
	case s.WriterSites < 0 || s.WriterSites > s.Sites:
		return fmt.Errorf("sparse: writer-site bound %d outside [0,%d]", s.WriterSites, s.Sites)
	case s.ReadMin < 0 || s.ReadMax < s.ReadMin:
		return fmt.Errorf("sparse: bad read range [%d,%d]", s.ReadMin, s.ReadMax)
	case s.WriteMin < 0 || s.WriteMax < s.WriteMin:
		return fmt.Errorf("sparse: bad write range [%d,%d]", s.WriteMin, s.WriteMax)
	case s.LinkMin < 1 || s.LinkMax < s.LinkMin:
		return fmt.Errorf("sparse: bad link cost range [%d,%d]", s.LinkMin, s.LinkMax)
	case s.SizeMean < 1:
		return fmt.Errorf("sparse: object size mean %d < 1", s.SizeMean)
	}
	return nil
}

// sampler draws k distinct sites by a partial Fisher–Yates over one
// reusable permutation — O(k) per draw with no per-object allocation. The
// permutation is never reset: a partial shuffle of any permutation yields
// uniform distinct samples, and the evolving state is a deterministic
// function of the RNG stream.
type sampler struct {
	perm []int32
}

func newSampler(m int) *sampler {
	s := &sampler{perm: make([]int32, m)}
	for i := range s.perm {
		s.perm[i] = int32(i)
	}
	return s
}

// draw writes k distinct sites into out, ascending, and returns it.
func (s *sampler) draw(k int, rng *xrand.Source, out []int32) []int32 {
	out = out[:0]
	for idx := 0; idx < k; idx++ {
		swap := idx + rng.Intn(len(s.perm)-idx)
		s.perm[idx], s.perm[swap] = s.perm[swap], s.perm[idx]
		out = append(out, s.perm[idx])
	}
	slices.Sort(out)
	return out
}

// patterns draws per-object access patterns from spec: U(1, ReaderSites)
// distinct reader sites reading U(ReadMin, ReadMax) times each, then
// U(0, WriterSites) distinct writer sites writing U(WriteMin, WriteMax)
// times each.
type patterns struct {
	spec    WorkloadSpec
	smp     *sampler
	scratch []int32
}

func newPatterns(spec WorkloadSpec) *patterns {
	return &patterns{spec: spec, smp: newSampler(spec.Sites), scratch: make([]int32, 0, spec.ReaderSites+spec.WriterSites)}
}

// draw appends one object's read and write entries to cfg.
func (p *patterns) draw(cfg *config, rng *xrand.Source) {
	p.scratch = p.smp.draw(rng.IntRange(1, p.spec.ReaderSites), rng, p.scratch)
	for _, site := range p.scratch {
		cfg.Reads.Site = append(cfg.Reads.Site, site)
		cfg.Reads.Cnt = append(cfg.Reads.Cnt, int64(rng.IntRange(p.spec.ReadMin, p.spec.ReadMax)))
	}
	writers := 0
	if p.spec.WriterSites > 0 {
		writers = rng.IntRange(0, p.spec.WriterSites)
	}
	p.scratch = p.smp.draw(writers, rng, p.scratch)
	for _, site := range p.scratch {
		cfg.Writes.Site = append(cfg.Writes.Site, site)
		cfg.Writes.Cnt = append(cfg.Writes.Cnt, int64(rng.IntRange(p.spec.WriteMin, p.spec.WriteMax)))
	}
}

// GenerateWorkload builds one random sparse instance. Identical seeds
// produce identical models.
func GenerateWorkload(spec WorkloadSpec, seed uint64) (*Model, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	rng := xrand.New(seed)
	m, n := spec.Sites, spec.Objects

	dist, err := netsim.CompleteUniform(m, int64(spec.LinkMin), int64(spec.LinkMax), rng).Distances()
	if err != nil {
		return nil, fmt.Errorf("sparse: %w", err)
	}

	cfg := config{
		Sizes:     make([]int64, n),
		Primaries: make([]int32, n),
		Dist:      dist,
	}
	cfg.Reads.Off = make([]int32, n+1)
	cfg.Writes.Off = make([]int32, n+1)
	avgNnz := spec.ReaderSites/2 + spec.WriterSites/2 + 2
	cfg.Reads.Site = make([]int32, 0, n*avgNnz)
	cfg.Reads.Cnt = make([]int64, 0, n*avgNnz)

	pat := newPatterns(spec)
	for k := 0; k < n; k++ {
		cfg.Sizes[k] = int64(rng.IntRange(1, 2*spec.SizeMean-1))
		cfg.Primaries[k] = int32(rng.Intn(m))
		pat.draw(&cfg, rng)
		cfg.Reads.Off[k+1] = int32(len(cfg.Reads.Site))
		cfg.Writes.Off[k+1] = int32(len(cfg.Writes.Site))
	}
	if cfg.Capacities, err = workload.Capacities(m, spec.CapacityRatio, cfg.Sizes, cfg.Primaries, rng); err != nil {
		return nil, fmt.Errorf("sparse: %w", err)
	}
	return newModel(cfg)
}

// PerturbWorkload re-draws the access patterns of a deterministic random
// fraction of mo's objects (Section 6.3's pattern shift, sparse form) and
// returns the shifted model plus the ascending changed-object list —
// AGRA-style adaptation input. Sizes, primaries, capacities and the
// topology are shared with mo; only the CSR arrays are rebuilt, so spec's
// capacity ratio plays no part.
func PerturbWorkload(mo *Model, spec WorkloadSpec, frac float64, seed uint64) (*Model, []int, error) {
	if !(frac >= 0 && frac <= 1) { // NaN fails both
		return nil, nil, fmt.Errorf("sparse: perturbation fraction %v outside [0,1]", frac)
	}
	if err := spec.validate(); err != nil {
		return nil, nil, err
	}
	if spec.Sites != mo.m || spec.Objects != mo.n {
		return nil, nil, fmt.Errorf("sparse: spec is %d×%d, model is %d×%d", spec.Sites, spec.Objects, mo.m, mo.n)
	}
	rng := xrand.New(seed)
	cfg := config{
		Sizes:      mo.size,
		Capacities: mo.cap,
		Primaries:  mo.primary,
		Dist:       mo.dist,
	}
	cfg.Reads.Off = make([]int32, mo.n+1)
	cfg.Writes.Off = make([]int32, mo.n+1)

	var changed []int
	pat := newPatterns(spec)
	for k := 0; k < mo.n; k++ {
		if rng.Float64() < frac {
			changed = append(changed, k)
			pat.draw(&cfg, rng)
		} else {
			rs, rc := mo.readEntries(k)
			cfg.Reads.Site = append(cfg.Reads.Site, rs...)
			cfg.Reads.Cnt = append(cfg.Reads.Cnt, rc...)
			ws, wc := mo.writeEntries(k)
			cfg.Writes.Site = append(cfg.Writes.Site, ws...)
			cfg.Writes.Cnt = append(cfg.Writes.Cnt, wc...)
		}
		cfg.Reads.Off[k+1] = int32(len(cfg.Reads.Site))
		cfg.Writes.Off[k+1] = int32(len(cfg.Writes.Site))
	}
	shifted, err := newModel(cfg)
	if err != nil {
		return nil, nil, err
	}
	return shifted, changed, nil
}
