// Ablation benchmark for GRA's one tunable design choice beyond the
// paper's rates: the elite re-injection period. Each benchmark reports the
// achieved fitness (% NTC saved / 100) alongside the runtime, so
// `go test -bench Ablation` doubles as a quality comparison. The operator
// ablations (seeding, selection, crossover, AGRA repair) are recorded in
// EXPERIMENTS.md; their variants are no longer in the code.
package drp_test

import (
	"testing"

	"drp"
	"drp/internal/gra"
)

func benchGRAVariant(b *testing.B, mutate func(*gra.Params)) {
	p, err := drp.Generate(drp.NewSpec(30, 80, 0.05, 0.15), 5)
	if err != nil {
		b.Fatal(err)
	}
	var fitness float64
	for i := 0; i < b.N; i++ {
		params := gra.DefaultParams()
		params.PopSize = 20
		params.Generations = 20
		params.Seed = uint64(i + 1)
		mutate(&params)
		res, err := gra.Run(p, params)
		if err != nil {
			b.Fatal(err)
		}
		fitness += res.Fitness
	}
	b.ReportMetric(fitness/float64(b.N), "fitness")
}

// Elite re-injection period: every generation versus the paper's every-5.
func BenchmarkAblationEliteEvery1(b *testing.B) {
	benchGRAVariant(b, func(p *gra.Params) { p.EliteEvery = 1 })
}

func BenchmarkAblationEliteEvery5(b *testing.B) {
	benchGRAVariant(b, func(p *gra.Params) { p.EliteEvery = 5 })
}
