// Benchmarks reproducing the paper's evaluation figures and profiling the
// algorithms themselves.
//
// Each BenchmarkFigNx runs the corresponding experiment sweep at the Tiny
// preset (so `go test -bench=.` completes in minutes on one core) and
// reports a representative metric from the figure. Paper-fidelity runs are
// the drpbench command's job:
//
//	go run ./cmd/drpbench -preset paper -fig 1a
//
// The remaining benchmarks profile the primitives: cost evaluation, SRA,
// one GRA generation, one AGRA micro-GA.
package drp_test

import (
	"strings"

	"testing"

	"drp"
	"drp/internal/experiments"
)

// benchFigure runs one figure's sweep per iteration and reports the last
// value of its first and last series.
func benchFigure(b *testing.B, id string) {
	cfg := experiments.Tiny()
	for i := 0; i < b.N; i++ {
		campaign, err := experiments.NewCampaign(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		fig, err := campaign.Figure(id)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			first := fig.Series[0]
			last := fig.Series[len(fig.Series)-1]
			b.ReportMetric(first.Y[len(first.Y)-1], metricUnit(first.Name))
			b.ReportMetric(last.Y[len(last.Y)-1], metricUnit(last.Name))
		}
	}
}

// metricUnit turns a series name into a legal ReportMetric unit (no
// whitespace allowed).
func metricUnit(name string) string {
	return strings.ReplaceAll(name, " ", "_") + "/last"
}

// Figure 1(a): % NTC savings versus number of sites (SRA vs GRA, three
// update ratios).
func BenchmarkFig1aSavingsVsSites(b *testing.B) { benchFigure(b, "1a") }

// Figure 1(b): replicas created versus number of sites.
func BenchmarkFig1bReplicasVsSites(b *testing.B) { benchFigure(b, "1b") }

// Figure 1(c): % NTC savings versus number of objects.
func BenchmarkFig1cSavingsVsObjects(b *testing.B) { benchFigure(b, "1c") }

// Figure 1(d): replicas created versus number of objects.
func BenchmarkFig1dReplicasVsObjects(b *testing.B) { benchFigure(b, "1d") }

// Figure 2(a): SRA execution time versus number of sites.
func BenchmarkFig2aSRARuntime(b *testing.B) { benchFigure(b, "2a") }

// Figure 2(b): GRA execution time versus number of sites.
func BenchmarkFig2bGRARuntime(b *testing.B) { benchFigure(b, "2b") }

// Figure 3(a): % NTC savings versus update ratio.
func BenchmarkFig3aSavingsVsUpdateRatio(b *testing.B) { benchFigure(b, "3a") }

// Figure 3(b): % NTC savings versus site capacity.
func BenchmarkFig3bSavingsVsCapacity(b *testing.B) { benchFigure(b, "3b") }

// Figure 4(a): adaptation policies versus share of objects with reads
// increased.
func BenchmarkFig4aAdaptReadsUp(b *testing.B) { benchFigure(b, "4a") }

// Figure 4(b): adaptation policies versus share of objects with updates
// increased.
func BenchmarkFig4bAdaptUpdatesUp(b *testing.B) { benchFigure(b, "4b") }

// Figure 4(c): adaptation policies versus the read/update mix of changes.
func BenchmarkFig4cAdaptMix(b *testing.B) { benchFigure(b, "4c") }

// Figure 4(d): execution time of the adaptation policies.
func BenchmarkFig4dAdaptRuntime(b *testing.B) { benchFigure(b, "4d") }

// --- Algorithm primitives ---

func benchProblem(b *testing.B, m, n int, u float64) *drp.Problem {
	b.Helper()
	p, err := drp.Generate(drp.NewSpec(m, n, u, 0.15), 1)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkCostEvaluation measures one full D computation (eq. 4) on the
// paper's adaptive test-case shape.
func BenchmarkCostEvaluation(b *testing.B) {
	p := benchProblem(b, 50, 200, 0.05)
	scheme := drp.SRA(p).Scheme
	bits := scheme.Bits()
	ev := drp.NewEvaluator(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ev.Cost(bits)
	}
}

// BenchmarkSRA measures the full greedy on the adaptive test-case shape.
func BenchmarkSRA(b *testing.B) {
	p := benchProblem(b, 50, 200, 0.05)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = drp.SRA(p)
	}
}

// BenchmarkSRALarge measures the greedy at the paper's largest static
// configuration (M=100, N=150).
func BenchmarkSRALarge(b *testing.B) {
	p := benchProblem(b, 100, 150, 0.05)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = drp.SRA(p)
	}
}

// benchGRAGeneration measures one GRA generation (population 50) from an
// SRA-seeded population built once, outside the timer: an iteration is the
// seed population's evaluation plus one generation's variation, offspring
// evaluation and selection — no SRA runs.
func benchGRAGeneration(b *testing.B, parallelism int) {
	p := benchProblem(b, 50, 200, 0.05)
	params := drp.DefaultGRAParams()
	params.Generations = 1
	params.Parallelism = parallelism
	// A zero-generation run returns its SRA-seeded population.
	seedParams := params
	seedParams.Generations = 0
	seedParams.Seed = 1
	seed, err := drp.GRA(p, seedParams)
	if err != nil {
		b.Fatal(err)
	}
	seeded := seed.Population
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		params.Seed = uint64(i + 1)
		if _, err := drp.GRAWithPopulation(p, params, seeded); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGRAGeneration is the serial generation.
func BenchmarkGRAGeneration(b *testing.B) { benchGRAGeneration(b, 1) }

// BenchmarkGRAGenerationParallel is BenchmarkGRAGeneration with the
// evaluation pool set to every core; the ratio of the two is the
// realised speedup of the parallel evaluation layer (≈1 on one core).
func BenchmarkGRAGenerationParallel(b *testing.B) { benchGRAGeneration(b, 0) }

// BenchmarkGRARun measures one default GRA run (Np 50, Ng 80, SRA-seeded)
// on the paper's adaptive test case, the night instance of the benchmark's
// solve_dense workload, at Parallelism 1. Unlike BenchmarkGRAGeneration,
// whose one generation is dominated by pricing the seed population, it
// shows the steady state: 80 generations of children priced for what they
// changed. Run it with -benchmem for the allocations of a run.
func BenchmarkGRARun(b *testing.B) {
	p := benchProblem(b, 50, 200, 0.05)
	params := drp.DefaultGRAParams()
	params.Parallelism = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := drp.GRA(p, params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAGRAObject measures one per-object micro-GA (Ap=10, Ag=50), the
// unit of adaptive work.
func BenchmarkAGRAObject(b *testing.B) {
	p := benchProblem(b, 50, 200, 0.05)
	current := drp.SRA(p).Scheme
	in := drp.AdaptInput{Problem: p, Current: current, Changed: []int{0}}
	mini := drp.DefaultGRAParams()
	mini.PopSize = 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		params := drp.DefaultAGRAParams()
		params.Seed = uint64(i + 1)
		if _, err := drp.Adapt(in, params, mini, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadGenerate measures instance generation at the adaptive
// test-case shape (complete topology + all-pairs shortest paths included).
func BenchmarkWorkloadGenerate(b *testing.B) {
	spec := drp.NewSpec(50, 200, 0.05, 0.15)
	for i := 0; i < b.N; i++ {
		if _, err := drp.Generate(spec, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHillClimb measures the local-search baseline on the adaptive
// test-case shape.
func BenchmarkHillClimb(b *testing.B) {
	p := benchProblem(b, 30, 80, 0.05)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = drp.HillClimb(p, nil, 0)
	}
}
