package experiments

import (
	"fmt"
	"time"

	"drp/internal/parallel"
)

// cell is one sweep point: the problem shape a static instance generates,
// or the pattern change an adaptive instance applies to the configured
// test case (Adapt*, BaseUpdateRatio, BaseCapacityRatio).
type cell struct {
	m, n                   int
	u, c                   float64
	objectShare, readShare float64
}

// column selects one measurement of a series.
type column int

const (
	savings  column = iota // % NTC saved against the primaries-only scheme
	replicas               // replicas created beyond the primaries
	ms                     // solver wall-clock in milliseconds
)

// measure is one series' value at one (cell, network) instance, by column.
type measure [3]float64

// sweepRow is one of the seven sweeps behind the paper's figures.
type sweepRow struct {
	tag      uint64  // pointSeed's first part: keeps every sweep's networks apart
	adaptive bool    // the seven-policy instance (Section 6.3); otherwise SRA and GRA
	overlay  bool    // every point repeats per cfg.UpdateRatios, one series group each
	scale    float64 // the x coordinate of a swept value v is scale·v
	desc     string  // progress line; formats the x coordinate
	values   func(cfg Config) []float64
	cell     func(cfg Config, v, u float64) cell // u: the overlaid update ratio
}

// The sweeps, indexed by the figure table.
const (
	bySites = iota
	byObjects
	byUpdate
	byCapacity
	adaptReads
	adaptWrites
	adaptMix
)

var sweepTable = [...]sweepRow{
	bySites: {tag: 0x516, overlay: true, scale: 1, desc: "fig1/2: sites=%.0f",
		values: func(cfg Config) []float64 { return floats(cfg.SitesSweep) },
		cell: func(cfg Config, m, u float64) cell {
			return cell{m: int(m), n: cfg.Fig1Objects, u: u, c: cfg.BaseCapacityRatio}
		}},
	byObjects: {tag: 0x0b7, overlay: true, scale: 1, desc: "fig1c/d: objects=%.0f",
		values: func(cfg Config) []float64 { return floats(cfg.ObjectsSweep) },
		cell: func(cfg Config, n, u float64) cell {
			return cell{m: cfg.Fig1cSites, n: int(n), u: u, c: cfg.BaseCapacityRatio}
		}},
	byUpdate: {tag: 0x3a0, scale: 100, desc: "fig3a: U=%.1f%%",
		values: func(cfg Config) []float64 { return cfg.UpdateSweep },
		cell: func(cfg Config, u, _ float64) cell {
			return cell{m: cfg.Fig3Sites, n: cfg.Fig3Objects, u: u, c: cfg.BaseCapacityRatio}
		}},
	byCapacity: {tag: 0x3b0, scale: 100, desc: "fig3b: C=%.0f%%",
		values: func(cfg Config) []float64 { return cfg.CapacitySweep },
		cell: func(cfg Config, c, _ float64) cell {
			return cell{m: cfg.Fig3Sites, n: cfg.Fig3Objects, u: cfg.BaseUpdateRatio, c: c}
		}},
	adaptReads: {tag: 0x4a0, adaptive: true, scale: 100, desc: "fig4 (reads up): OCh=%.0f%%",
		values: func(cfg Config) []float64 { return cfg.OChSweep },
		cell:   func(_ Config, och, _ float64) cell { return cell{objectShare: och, readShare: 1} }},
	adaptWrites: {tag: 0x4b0, adaptive: true, scale: 100, desc: "fig4 (updates up): OCh=%.0f%%",
		values: func(cfg Config) []float64 { return cfg.OChSweep },
		cell:   func(_ Config, och, _ float64) cell { return cell{objectShare: och} }},
	adaptMix: {tag: 0x4c0, adaptive: true, scale: 100, desc: "fig4c: read share=%.0f%%",
		values: func(cfg Config) []float64 { return cfg.MixSweep },
		cell: func(cfg Config, r, _ float64) cell {
			return cell{objectShare: cfg.MixObjectShare, readShare: r}
		}},
}

// sweep is the data behind a group of figures: the x axis and, in fixed
// order, every series the sweep's instance measures.
type sweep struct {
	x      []float64
	series []curve
}

// curve is one series of a sweep: its label, its index in the instance's
// vector (what a figure's filter selects on) and its means per column.
type curve struct {
	name  string
	index int
	y     [3][]float64
}

// run measures every cell of the sweep on cfg.Networks random networks.
// The (cell, network) instances fan out over GOMAXPROCS workers, each
// writing its own slot, and their seeds are pure functions of the slot.
// Every series is then averaged over the networks in network order, so the
// result is bit-identical at any worker count.
func (row sweepRow) run(cfg Config, log logf) (*sweep, error) {
	names, instance := staticSeries, cfg.staticInstance
	if row.adaptive {
		names, instance = cfg.policyNames(), cfg.adaptInstance
	}
	groups, suffixes := []float64{0}, []string{""}
	if row.overlay {
		groups, suffixes = cfg.UpdateRatios, nil
		for _, u := range groups {
			suffixes = append(suffixes, " U="+trimFloat(100*u)+"%")
		}
	}
	values := row.values(cfg)
	s := &sweep{}
	for _, v := range values {
		s.x = append(s.x, row.scale*v)
	}
	var cells []cell
	var descs []string
	for _, u := range groups {
		for xi, v := range values {
			cells = append(cells, row.cell(cfg, v, u))
			desc := fmt.Sprintf(row.desc, row.scale*v)
			if row.overlay {
				desc += fmt.Sprintf(" U=%.0f%%", 100*u)
			}
			descs = append(descs, fmt.Sprintf("%s (%d/%d)", desc, xi+1, len(values)))
		}
	}

	log = syncLogf(log)
	nets := cfg.Networks
	samples := make([][]measure, len(cells)*nets)
	errs := make([]error, len(samples))
	parallel.For(len(samples), parallel.Workers(0), func(ti int) {
		ci, net := ti/nets, ti%nets
		if net == 0 {
			log("%s", descs[ci])
		}
		samples[ti], errs[ti] = instance(row.tag, cells[ci], net)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	acc := make([]float64, nets)
	for gi, suffix := range suffixes {
		for si, name := range names {
			c := curve{name: name + suffix, index: si}
			for xi := range values {
				ci := gi*len(values) + xi
				for col := range c.y {
					for net := range acc {
						acc[net] = samples[ci*nets+net][si][col]
					}
					c.y[col] = append(c.y[col], mean(acc))
				}
			}
			s.series = append(s.series, c)
		}
	}
	return s, nil
}

func floats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// millis reports a solver's elapsed time at microsecond resolution.
func millis(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
