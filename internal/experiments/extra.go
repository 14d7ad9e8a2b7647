package experiments

import (
	"fmt"
	"io"
	"time"

	"drp/internal/baseline"
	"drp/internal/gra"
	"drp/internal/sra"
	"drp/internal/workload"
)

// SummaryRow is one algorithm's performance on the headline test case.
type SummaryRow struct {
	Algorithm string
	Savings   float64
	Replicas  int
	Elapsed   time.Duration
}

// SummaryResult compares every implemented algorithm on the paper's
// adaptive test-case shape (M=50, N=200, U=5%, C=15% at paper scale).
type SummaryResult struct {
	Sites, Objects int
	Rows           []SummaryRow
}

// RunSummary builds the headline comparison table on one generated
// instance: baselines, greedy, local search and the genetic algorithm.
func RunSummary(cfg Config, log func(format string, args ...interface{})) (*SummaryResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if log == nil {
		log = func(string, ...interface{}) {}
	}
	p, err := workload.Generate(workload.NewSpec(cfg.AdaptSites, cfg.AdaptObjects, cfg.BaseUpdateRatio, cfg.BaseCapacityRatio), cfg.Seed)
	if err != nil {
		return nil, err
	}
	res := &SummaryResult{Sites: p.Sites(), Objects: p.Objects()}
	add := func(name string, savings float64, replicas int, elapsed time.Duration) {
		res.Rows = append(res.Rows, SummaryRow{Algorithm: name, Savings: savings, Replicas: replicas, Elapsed: elapsed})
	}

	log("summary: baselines")
	start := time.Now()
	none := baseline.NoReplication(p)
	add("no replication", none.Savings(), none.TotalReplicas(), time.Since(start))

	start = time.Now()
	rnd := baseline.Random(p, cfg.Seed)
	add("random fill", rnd.Savings(), rnd.TotalReplicas(), time.Since(start))

	start = time.Now()
	ro := baseline.ReadOnlyGreedy(p)
	add("read-blind greedy", ro.Savings(), ro.TotalReplicas(), time.Since(start))

	log("summary: SRA")
	sraRes := sra.Run(p, sra.Options{})
	add("SRA (paper)", sraRes.Scheme.Savings(), sraRes.Scheme.TotalReplicas(), sraRes.Elapsed)

	log("summary: hill climb")
	hc := baseline.HillClimbWith(p, nil, 0, cfg.cellRun())
	add("hill climb", hc.Scheme.Savings(), hc.Scheme.TotalReplicas(), hc.Stats.Elapsed)

	log("summary: GRA (%d gens)", cfg.GRAGens)
	graRes, err := gra.RunWith(p, cfg.graParams(cfg.Seed+1), cfg.cellRun())
	if err != nil {
		return nil, err
	}
	add(fmt.Sprintf("GRA (paper, %dx%d)", cfg.GRAPop, cfg.GRAGens), graRes.Scheme.Savings(), graRes.Scheme.TotalReplicas(), graRes.Elapsed)

	return res, nil
}

// Render writes the summary as an aligned table.
func (s *SummaryResult) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Algorithm comparison on M=%d, N=%d:\n", s.Sites, s.Objects); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  %-22s %10s %10s %14s\n", "algorithm", "savings%", "replicas", "time"); err != nil {
		return err
	}
	for _, row := range s.Rows {
		if _, err := fmt.Fprintf(w, "  %-22s %10.2f %10d %14v\n", row.Algorithm, row.Savings, row.Replicas, row.Elapsed.Round(time.Microsecond)); err != nil {
			return err
		}
	}
	return nil
}

// RunConvergence produces an extension figure the paper does not plot but
// whose data the GA run records anyway: best and mean population fitness
// per generation on the headline test case, for each update ratio.
func RunConvergence(cfg Config, log func(format string, args ...interface{})) (*FigureResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if log == nil {
		log = func(string, ...interface{}) {}
	}
	fig := &FigureResult{
		ID:     "conv",
		Title:  "GRA convergence: fitness versus generation",
		XLabel: "generation",
		YLabel: "fitness (D'−D)/D'",
	}
	for g := 0; g <= cfg.GRAGens; g++ {
		fig.X = append(fig.X, float64(g))
	}
	for _, u := range cfg.UpdateRatios {
		log("conv: U=%.0f%%", 100*u)
		p, err := workload.Generate(workload.NewSpec(cfg.AdaptSites, cfg.AdaptObjects, u, cfg.BaseCapacityRatio), cfg.Seed)
		if err != nil {
			return nil, err
		}
		res, err := gra.RunWith(p, cfg.graParams(cfg.Seed+7), cfg.cellRun())
		if err != nil {
			return nil, err
		}
		best := make([]float64, 0, len(res.History))
		mean := make([]float64, 0, len(res.History))
		for _, h := range res.History {
			best = append(best, h.BestFitness)
			mean = append(mean, h.MeanFitness)
		}
		uLabel := trimFloat(100 * u)
		fig.Series = append(fig.Series,
			Series{Name: "best U=" + uLabel + "%", Y: best},
			Series{Name: "mean U=" + uLabel + "%", Y: mean},
		)
	}
	return fig, nil
}
