// Integration tests exercising the public facade end to end: generate →
// solve → adapt → simulate, plus serialization round-trips through the API
// surface a downstream user sees.
package drp_test

import (
	"bytes"
	"context"
	"testing"

	"drp"
)

func facadeProblem(t *testing.T, m, n int, u, c float64, seed uint64) *drp.Problem {
	t.Helper()
	p, err := drp.Generate(drp.NewSpec(m, n, u, c), seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEndToEndStaticPipeline(t *testing.T) {
	p := facadeProblem(t, 15, 30, 0.05, 0.15, 1)

	sraRes := drp.SRA(p)
	if err := sraRes.Scheme.Validate(); err != nil {
		t.Fatal(err)
	}

	params := drp.DefaultGRAParams()
	params.PopSize = 12
	params.Generations = 12
	params.Seed = 1
	graRes, err := drp.GRA(p, params)
	if err != nil {
		t.Fatal(err)
	}
	if graRes.Cost > sraRes.Scheme.Cost() {
		slack := float64(graRes.Cost) / float64(sraRes.Scheme.Cost())
		if slack > 1.02 {
			t.Fatalf("GRA %d much worse than SRA %d", graRes.Cost, sraRes.Scheme.Cost())
		}
	}

	// Baselines bracket the heuristics.
	if drp.NoReplication(p).Cost() != p.DPrime() {
		t.Fatal("no-replication baseline broken")
	}
	if rp := drp.RandomPlacement(p, 1); rp.Validate() != nil {
		t.Fatal("random placement invalid")
	}
}

func TestEndToEndAdaptivePipeline(t *testing.T) {
	p := facadeProblem(t, 12, 24, 0.05, 0.15, 2)
	params := drp.DefaultGRAParams()
	params.PopSize = 10
	params.Generations = 8
	params.Seed = 2
	staticRes, err := drp.GRA(p, params)
	if err != nil {
		t.Fatal(err)
	}

	day, changes, err := drp.ApplyChange(p, drp.ChangeSpec{Ch: 6, ObjectShare: 0.25, ReadShare: 0.5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	changed := make([]int, len(changes))
	for i, c := range changes {
		changed[i] = c.Object
	}

	current, err := drp.RebindScheme(day, staticRes.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	res, err := drp.Adapt(drp.AdaptInput{
		Problem:       day,
		Current:       current,
		GRAPopulation: staticRes.Population,
		Changed:       changed,
	}, drp.DefaultAGRAParams(), params, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Scheme.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Cost > current.Cost() {
		t.Fatalf("adaptation made things worse: %d > %d", res.Cost, current.Cost())
	}
}

func TestEndToEndClusterSimulation(t *testing.T) {
	p := facadeProblem(t, 10, 15, 0.05, 0.15, 4)
	initial := drp.SRA(p).Scheme
	graParams := drp.DefaultGRAParams()
	graParams.PopSize = 8
	graParams.Generations = 5
	cfg := drp.ClusterConfig{
		Epochs:     2,
		Policy:     drp.PolicyAGRAMini,
		Drift:      &drp.ChangeSpec{Ch: 4, ObjectShare: 0.2, ReadShare: 0.5},
		GRAParams:  graParams,
		AGRAParams: drp.DefaultAGRAParams(),
		Seed:       4,
	}
	res, err := drp.ClusterRun(p, initial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 2 {
		t.Fatalf("%d epochs", len(res.Epochs))
	}
	if res.Epochs[0].ServeNTC != res.Epochs[0].ModelNTC {
		t.Fatal("simulated cost diverged from the analytic model")
	}
}

func TestSerializationThroughFacade(t *testing.T) {
	p := facadeProblem(t, 6, 8, 0.05, 0.2, 6)
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	p2, err := drp.ReadProblem(&buf)
	if err != nil {
		t.Fatal(err)
	}
	scheme := drp.SRA(p2).Scheme
	buf.Reset()
	if err := scheme.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := drp.ReadScheme(p2, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Cost() != scheme.Cost() {
		t.Fatal("scheme cost changed across serialization")
	}
}

func TestExplicitProblemConstruction(t *testing.T) {
	topo := drp.TreeTopology(6, 1, 5, 7)
	dist, err := topo.Distances()
	if err != nil {
		t.Fatal(err)
	}
	reads := make([][]int64, 6)
	writes := make([][]int64, 6)
	for i := range reads {
		reads[i] = []int64{3, 1}
		writes[i] = []int64{0, 1}
	}
	p, err := drp.NewProblem(drp.ProblemConfig{
		Sizes:      []int64{4, 2},
		Capacities: []int64{10, 10, 10, 10, 10, 10},
		Primaries:  []int{0, 5},
		Reads:      reads,
		Writes:     writes,
		Dist:       dist,
	})
	if err != nil {
		t.Fatal(err)
	}
	if drp.SRA(p).Scheme.Validate() != nil {
		t.Fatal("scheme invalid")
	}
	if opt, err := drp.Optimal(p, 12); err != nil || opt.Validate() != nil {
		t.Fatalf("optimal failed: %v", err)
	}
}

func TestOptimalBracketsHeuristicsOnTinyInstance(t *testing.T) {
	p := facadeProblem(t, 3, 4, 0.05, 0.4, 8)
	opt, err := drp.Optimal(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	params := drp.DefaultGRAParams()
	params.PopSize = 8
	params.Generations = 10
	params.Seed = 8
	graRes, err := drp.GRA(p, params)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Cost() > graRes.Cost || opt.Cost() > drp.SRA(p).Scheme.Cost() {
		t.Fatal("exhaustive optimum beaten by a heuristic — optimality bug")
	}
}

func TestHillClimbFacade(t *testing.T) {
	p := facadeProblem(t, 10, 14, 0.05, 0.15, 9)
	start := drp.SRA(p).Scheme
	improved := drp.HillClimb(p, start, 0)
	if improved.Validate() != nil {
		t.Fatal("hill climb scheme invalid")
	}
	if improved.Cost() > start.Cost() {
		t.Fatal("hill climb made SRA's scheme worse")
	}
}

func TestSparseGreedyFacade(t *testing.T) {
	p := facadeProblem(t, 10, 30, 0.05, 0.15, 9)
	scheme, stats, err := drp.SparseGreedy(p, drp.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if scheme.Validate() != nil || scheme.Cost() > p.DPrime() {
		t.Fatalf("sparse greedy scheme invalid or worse than no replication (D %d, D′ %d)", scheme.Cost(), p.DPrime())
	}
	if stats.Stopped != drp.StopCompleted || stats.Evaluations == 0 {
		t.Fatalf("stats %+v: want a completed run with evaluations counted", stats)
	}

	// A run cancelled before it starts still returns a valid scheme.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	scheme, stats, err = drp.SparseGreedy(p, drp.RunOptions{Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Stopped != drp.StopCancelled || scheme.Validate() != nil {
		t.Fatalf("cancelled run: stopped %v, valid %v", stats.Stopped, scheme.Validate() == nil)
	}
}

func TestZipfFacade(t *testing.T) {
	p, err := drp.GenerateZipf(drp.NewZipfSpec(10, 30, 0.05, 0.15, 0.9), 10)
	if err != nil {
		t.Fatal(err)
	}
	res := drp.SRA(p)
	if res.Scheme.Validate() != nil {
		t.Fatal("scheme invalid on Zipf workload")
	}
	if res.Scheme.Savings() <= 0 {
		t.Fatalf("SRA saves %v%% on a Zipf workload", res.Scheme.Savings())
	}
}
