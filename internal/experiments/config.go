// Package experiments regenerates every figure of the paper's evaluation
// (Section 6): the static SRA/GRA sweeps over network size, object count,
// update ratio and storage capacity (Figures 1–3), and the adaptive AGRA
// scenarios (Figure 4). Each figure is produced as a FigureResult — named
// series over a shared x-axis — that the drpbench command renders as a
// table and the benchmarks consume programmatically.
package experiments

import (
	"fmt"
	"time"

	"drp/internal/agra"
	"drp/internal/gra"
	"drp/internal/solver"
)

// Config sizes an experiment campaign. The paper's exact dimensions are in
// Paper(); Quick() trades fidelity for wall-clock time on small machines;
// Tiny() exists for unit tests and benchmarks of the harness itself.
type Config struct {
	// Networks is the number of random networks averaged per data point
	// (paper: 15).
	Networks int
	// Seed derives every workload and algorithm seed; campaigns are fully
	// reproducible.
	Seed uint64

	// GRAPop/GRAGens parameterise the static GRA (paper: 50/80).
	GRAPop  int
	GRAGens int
	// MedGens and LongGens are the "Current + 80 GRA" and "150 GRA" policy
	// budgets of Section 6.3 (paper: 80/150).
	MedGens  int
	LongGens int
	// AGRAPop/AGRAGens parameterise the adaptive micro-GA (paper: 10/50).
	AGRAPop  int
	AGRAGens int

	// Figure 1(a)/(b) and 2(a)/(b): sites sweep at fixed object count.
	SitesSweep  []int
	Fig1Objects int // paper: 150
	// Figure 1(c)/(d): objects sweep at fixed site count.
	ObjectsSweep []int
	Fig1cSites   int // paper: 100
	// Update ratios overlaid on Figures 1–2 (paper: 2%, 5%, 10%).
	UpdateRatios []float64

	// Figure 3(a): update-ratio sweep; 3(b): capacity sweep.
	UpdateSweep   []float64
	CapacitySweep []float64
	Fig3Sites     int
	Fig3Objects   int

	// Figure 4: the adaptive test case (paper: M=50, N=200, U=5%, C=15%,
	// Ch=600%).
	AdaptSites     int
	AdaptObjects   int
	Ch             float64
	OChSweep       []float64 // fraction of objects changing (Fig 4a/4b/4d)
	MixSweep       []float64 // read share of changes (Fig 4c)
	MixObjectShare float64   // OCh held fixed in Fig 4c

	// Shared workload constants.
	BaseUpdateRatio   float64 // paper: 5%
	BaseCapacityRatio float64 // paper: 15%

	// CellTimeout and CellBudget time-box every genetic-algorithm run a
	// campaign performs (GRA, AGRA and hill climb; SRA and the trivial
	// baselines stay unbounded — they are never the bottleneck): each run
	// gets at most this much wall-clock and this many cost-model
	// evaluations, returning its best scheme so far when the cap fires.
	// They let `-preset paper` finish in bounded time at the price of
	// truncated GA runs (which the figures then reflect); budgeted results
	// stay reproducible at any GOMAXPROCS, timed-out ones inherently do
	// not. Zero values leave runs unbounded.
	CellTimeout time.Duration
	CellBudget  int
	// Observer, when set, receives every solver's per-generation progress
	// events. Cells run concurrently, so it must be safe for concurrent
	// use — wrap with solver.Synchronized.
	Observer solver.Observer
}

// Paper returns the paper's full experiment dimensions. A complete campaign
// at this setting takes hours on a laptop-class machine, exactly as the
// original did on a 200 MHz UltraSPARC.
func Paper() Config {
	return Config{
		Networks:          15,
		Seed:              1,
		GRAPop:            50,
		GRAGens:           80,
		MedGens:           80,
		LongGens:          150,
		AGRAPop:           10,
		AGRAGens:          50,
		SitesSweep:        []int{20, 40, 60, 80, 100},
		Fig1Objects:       150,
		ObjectsSweep:      []int{100, 250, 400, 550, 700, 850, 1000},
		Fig1cSites:        100,
		UpdateRatios:      []float64{0.02, 0.05, 0.10},
		UpdateSweep:       []float64{0.005, 0.01, 0.02, 0.05, 0.10, 0.20},
		CapacitySweep:     []float64{0.10, 0.15, 0.20, 0.25, 0.30},
		Fig3Sites:         50,
		Fig3Objects:       200,
		AdaptSites:        50,
		AdaptObjects:      200,
		Ch:                6.0,
		OChSweep:          []float64{0.10, 0.20, 0.30},
		MixSweep:          []float64{0, 0.25, 0.50, 0.75, 1.0},
		MixObjectShare:    0.30,
		BaseUpdateRatio:   0.05,
		BaseCapacityRatio: 0.15,
	}
}

// Quick returns a campaign sized for a single-core CI box: the same sweeps
// and algorithms with fewer averaged networks and smaller GA budgets. The
// qualitative shapes survive; absolute savings drift a little from the
// paper-sized GA budgets.
func Quick() Config {
	cfg := Paper()
	cfg.Networks = 2
	cfg.GRAPop = 24
	cfg.GRAGens = 30
	cfg.MedGens = 30
	cfg.LongGens = 60
	cfg.SitesSweep = []int{20, 40, 60, 80}
	cfg.Fig1Objects = 100
	cfg.ObjectsSweep = []int{100, 200, 400}
	cfg.Fig1cSites = 50
	cfg.UpdateSweep = []float64{0.005, 0.02, 0.05, 0.10, 0.20}
	cfg.OChSweep = []float64{0.10, 0.20, 0.30}
	return cfg
}

// Tiny returns a seconds-scale campaign for tests and harness benchmarks.
func Tiny() Config {
	cfg := Paper()
	cfg.Networks = 1
	cfg.GRAPop = 10
	cfg.GRAGens = 10
	cfg.MedGens = 8
	cfg.LongGens = 10
	cfg.AGRAPop = 6
	cfg.AGRAGens = 8
	cfg.SitesSweep = []int{8, 12}
	cfg.Fig1Objects = 20
	cfg.ObjectsSweep = []int{15, 30}
	cfg.Fig1cSites = 10
	cfg.UpdateRatios = []float64{0.02, 0.10}
	cfg.UpdateSweep = []float64{0.02, 0.10}
	cfg.CapacitySweep = []float64{0.10, 0.30}
	cfg.Fig3Sites = 10
	cfg.Fig3Objects = 20
	cfg.AdaptSites = 10
	cfg.AdaptObjects = 20
	cfg.OChSweep = []float64{0.20}
	cfg.MixSweep = []float64{0, 1.0}
	return cfg
}

func (cfg Config) validate() error {
	switch {
	case cfg.Networks < 1:
		return fmt.Errorf("experiments: need at least one network, got %d", cfg.Networks)
	case cfg.GRAPop < 2 || cfg.GRAGens < 0:
		return fmt.Errorf("experiments: bad GRA budget %d/%d", cfg.GRAPop, cfg.GRAGens)
	case cfg.AGRAPop < 2 || cfg.AGRAGens < 0:
		return fmt.Errorf("experiments: bad AGRA budget %d/%d", cfg.AGRAPop, cfg.AGRAGens)
	case cfg.CellTimeout < 0:
		return fmt.Errorf("experiments: negative cell timeout %v", cfg.CellTimeout)
	case cfg.CellBudget < 0:
		return fmt.Errorf("experiments: negative cell budget %d", cfg.CellBudget)
	}
	return nil
}

// cellRun bundles the campaign's per-run anytime controls.
func (cfg Config) cellRun() solver.Run {
	return solver.Run{Timeout: cfg.CellTimeout, Budget: cfg.CellBudget, Observer: cfg.Observer}
}

// graParams and agraParams size the inner algorithms from the campaign.
func (cfg Config) graParams(seed uint64) gra.Params {
	p := gra.DefaultParams()
	p.PopSize = cfg.GRAPop
	p.Generations = cfg.GRAGens
	p.Seed = seed
	return p
}

func (cfg Config) agraParams(seed uint64) agra.Params {
	p := agra.DefaultParams()
	p.PopSize = cfg.AGRAPop
	p.Generations = cfg.AGRAGens
	p.Seed = seed
	return p
}

// pointSeed derives a reproducible seed for one (figure, point, network)
// combination from the campaign seed.
func (cfg Config) pointSeed(parts ...uint64) uint64 {
	h := cfg.Seed*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	for _, p := range parts {
		h ^= p + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h *= 0xff51afd7ed558ccd
	}
	return h
}
