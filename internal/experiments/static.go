package experiments

import (
	"fmt"
	"math"

	"drp/internal/gra"
	"drp/internal/sra"
	"drp/internal/workload"
)

// The static instance's series, in the order of its vector.
const sraSeries, graSeries = 0, 1

var staticSeries = []string{sraSeries: "SRA", graSeries: "GRA"}

// staticInstance runs SRA and GRA on the net-th random network of a cell
// and returns one measurement per staticSeries entry. The seed is a pure
// function of (tag, cell, net), so instances are independent and safe to
// run on any worker in any order.
func (cfg Config) staticInstance(tag uint64, at cell, net int) ([]measure, error) {
	seed := cfg.pointSeed(tag, uint64(at.m), uint64(at.n), math.Float64bits(at.u), math.Float64bits(at.c), uint64(net))
	p, err := workload.Generate(workload.NewSpec(at.m, at.n, at.u, at.c), seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: generate M=%d N=%d: %w", at.m, at.n, err)
	}
	sraRes := sra.Run(p, sra.Options{})
	graRes, err := gra.RunWith(p, cfg.graParams(seed+1), cfg.cellRun())
	if err != nil {
		return nil, fmt.Errorf("experiments: gra M=%d N=%d: %w", at.m, at.n, err)
	}
	return []measure{
		sraSeries: {savings: p.Savings(sraRes.Scheme.Cost()), replicas: float64(sraRes.Scheme.TotalReplicas()), ms: millis(sraRes.Elapsed)},
		graSeries: {savings: graRes.Scheme.Savings(), replicas: float64(graRes.Scheme.TotalReplicas()), ms: millis(graRes.Elapsed)},
	}, nil
}
