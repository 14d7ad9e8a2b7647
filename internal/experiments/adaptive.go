package experiments

import (
	"fmt"
	"math"

	"drp/internal/agra"
	"drp/internal/bitset"
	"drp/internal/core"
	"drp/internal/gra"
	"drp/internal/workload"
)

// currentSeries is the adaptive instance's first policy: the stale static
// scheme, which costs nothing to compute.
const currentSeries = 0

// Policy names for Figure 4, parameterised by the configured budgets so the
// labels stay honest when the campaign is scaled down.
func (cfg Config) policyNames() []string {
	return []string{
		"Current",
		"Current+AGRA",
		"AGRA+5GRA",
		"AGRA+10GRA",
		fmt.Sprintf("Current+%dGRA", cfg.MedGens),
		fmt.Sprintf("Current+%dGRA", cfg.LongGens),
		fmt.Sprintf("%dGRA", cfg.LongGens),
	}
}

// adaptInstance evaluates all Section 6.3 policies on the net-th random
// network of a cell and returns one measurement (savings and runtime) per
// policy, in policyNames order. The seed is a pure function of (tag, cell,
// net), so instances are independent and safe to run on any worker in any
// order.
func (cfg Config) adaptInstance(tag uint64, at cell, net int) ([]measure, error) {
	seed := cfg.pointSeed(tag, math.Float64bits(at.objectShare), math.Float64bits(at.readShare), uint64(net))
	old, err := workload.Generate(workload.NewSpec(cfg.AdaptSites, cfg.AdaptObjects, cfg.BaseUpdateRatio, cfg.BaseCapacityRatio), seed)
	if err != nil {
		return nil, err
	}
	// The network's current scheme comes from a static GRA run on the
	// old (night-time) patterns; its population is retained, as the
	// paper's monitor site would.
	staticRes, err := gra.RunWith(old, cfg.graParams(seed+1), cfg.cellRun())
	if err != nil {
		return nil, err
	}
	newP, changes, err := workload.ApplyChange(old, workload.ChangeSpec{
		Ch:          cfg.Ch,
		ObjectShare: at.objectShare,
		ReadShare:   at.readShare,
	}, seed+2)
	if err != nil {
		return nil, err
	}
	changed := make([]int, len(changes))
	for i, c := range changes {
		changed[i] = c.Object
	}
	current, err := core.SchemeFromBits(newP, staticRes.Scheme.Bits())
	if err != nil {
		return nil, err
	}

	// Policy: Current — the stale static scheme evaluated against the
	// new patterns.
	out := []measure{currentSeries: {savings: newP.Savings(current.Cost())}}

	// Policies: Current+AGRA, AGRA+5GRA, AGRA+10GRA.
	for i, miniGens := range []int{0, 5, 10} {
		mini := cfg.graParams(seed + 3 + uint64(i))
		res, err := agra.AdaptWith(agra.Input{
			Problem:       newP,
			Current:       current,
			GRAPopulation: staticRes.Population,
			Changed:       changed,
		}, cfg.agraParams(seed+7+uint64(i)), mini, miniGens, cfg.cellRun())
		if err != nil {
			return nil, err
		}
		out = append(out, measure{savings: res.Savings, ms: millis(res.Elapsed)})
	}

	// Policies: Current+MedGRA and Current+LongGRA — re-run the static
	// GRA from the retained population under the new patterns.
	seedPop := append([]*bitset.Set{current.Bits()}, staticRes.Population...)
	for i, gens := range []int{cfg.MedGens, cfg.LongGens} {
		params := cfg.graParams(seed + 11 + uint64(i))
		params.Generations = gens
		res, err := gra.ContinueWith(newP, params, seedPop, cfg.cellRun())
		if err != nil {
			return nil, err
		}
		out = append(out, measure{savings: res.Scheme.Savings(), ms: millis(res.Elapsed)})
	}

	// Policy: LongGRA from scratch (fresh SRA-seeded population).
	params := cfg.graParams(seed + 13)
	params.Generations = cfg.LongGens
	res, err := gra.RunWith(newP, params, cfg.cellRun())
	if err != nil {
		return nil, err
	}
	return append(out, measure{savings: res.Scheme.Savings(), ms: millis(res.Elapsed)}), nil
}
