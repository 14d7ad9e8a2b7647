package main

// The sparse-core scaling benchmark (-sparse-bench): generate a
// million-object-class instance directly in the compressed representation,
// run the sharded sparse solve plus one adaptive round, and report
// throughput and peak memory as JSON (BENCH_sparse.json in CI). This is the
// evidence for ROADMAP item 3's "N ≈ 10^6 within minutes" claim, so the
// numbers come from the real solver entry points, not a microbenchmark.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"drp/internal/solver"
	"drp/internal/sparse"
)

// sparseBenchOpts carries the -sparse-* flags.
type sparseBenchOpts struct {
	sites   int
	objects int
	seed    uint64
	adapt   float64
	out     string
}

// sparseBenchReport is the JSON document the CI job archives and gates on.
type sparseBenchReport struct {
	Schema     string `json:"schema"`
	M          int    `json:"m"`
	N          int    `json:"n"`
	Seed       uint64 `json:"seed"`
	ReadNNZ    int    `json:"read_nnz"`
	WriteNNZ   int    `json:"write_nnz"`
	Candidates int    `json:"candidates"`
	GenMillis  int64  `json:"gen_millis"` // GenerateWorkload alone: no candidate site is priced there

	DPrime        int64   `json:"d_prime"`
	SolveCost     int64   `json:"solve_cost"`
	SolveSavings  float64 `json:"solve_savings_pct"`
	SolveReplicas int     `json:"solve_replicas"`
	SolveEvals    int     `json:"solve_evals"`
	SolveMillis   int64   `json:"solve_millis"`
	EvalsPerSec   float64 `json:"evals_per_sec"`

	AdaptChanged int   `json:"adapt_changed"`
	AdaptCost    int64 `json:"adapt_cost"`
	AdaptEvals   int   `json:"adapt_evals"`
	AdaptMillis  int64 `json:"adapt_millis"`

	PeakRSSBytes int64 `json:"peak_rss_bytes"`
}

// runSparseBench executes the benchmark and writes the report.
func runSparseBench(opts sparseBenchOpts, stdout, stderr io.Writer) error {
	logf := func(format string, a ...interface{}) { fmt.Fprintf(stderr, format+"\n", a...) }
	spec := sparse.NewWorkloadSpec(opts.sites, opts.objects)
	logf("generating %d×%d sparse instance (seed %d)…", opts.sites, opts.objects, opts.seed)
	genStart := time.Now()
	mo, err := sparse.GenerateWorkload(spec, opts.seed)
	if err != nil {
		return fmt.Errorf("generate: %w", err)
	}
	genElapsed := time.Since(genStart)
	readNNZ, writeNNZ := mo.AccessEntries()
	candidates := mo.CandidateCount() // a first-round pass over every object
	logf("generated in %v: %d read entries, %d write entries, %d candidate sites",
		genElapsed.Round(time.Millisecond), readNNZ, writeNNZ, candidates)

	logf("solving on %d workers…", runtime.GOMAXPROCS(0))
	solveStart := time.Now()
	res, err := sparse.Solve(mo, sparse.SolveParams{}, solver.Run{})
	if err != nil {
		return fmt.Errorf("solve: %w", err)
	}
	solveElapsed := time.Since(solveStart)
	logf("solved in %v: D=%d (D′=%d, %.2f%% savings), %d replicas, %d evaluations",
		solveElapsed.Round(time.Millisecond), res.Cost, mo.DPrime(), mo.Savings(res.Cost),
		res.Assignment.TotalReplicas(), res.Stats.Evaluations)

	report := sparseBenchReport{
		Schema:        "drp-bench-sparse/1",
		M:             opts.sites,
		N:             opts.objects,
		Seed:          opts.seed,
		ReadNNZ:       readNNZ,
		WriteNNZ:      writeNNZ,
		Candidates:    candidates,
		GenMillis:     genElapsed.Milliseconds(),
		DPrime:        mo.DPrime(),
		SolveCost:     res.Cost,
		SolveSavings:  mo.Savings(res.Cost),
		SolveReplicas: res.Assignment.TotalReplicas(),
		SolveEvals:    res.Stats.Evaluations,
		SolveMillis:   solveElapsed.Milliseconds(),
	}
	if secs := solveElapsed.Seconds(); secs > 0 {
		report.EvalsPerSec = float64(res.Stats.Evaluations) / secs
	}

	if opts.adapt != 0 { // NaN and negatives reach PerturbWorkload, which rejects them
		shifted, changed, err := sparse.PerturbWorkload(mo, spec, opts.adapt, opts.seed+1)
		if err != nil {
			return fmt.Errorf("perturb: %w", err)
		}
		carried, err := carryAssignment(shifted, res.Assignment)
		if err != nil {
			return fmt.Errorf("carry: %w", err)
		}
		logf("adapting %d changed objects…", len(changed))
		adaptStart := time.Now()
		ares, err := sparse.Adapt(shifted, carried, changed, sparse.SolveParams{}, solver.Run{})
		if err != nil {
			return fmt.Errorf("adapt: %w", err)
		}
		adaptElapsed := time.Since(adaptStart)
		logf("adapted in %v: D=%d, %d evaluations",
			adaptElapsed.Round(time.Millisecond), ares.Cost, ares.Stats.Evaluations)
		report.AdaptChanged = len(changed)
		report.AdaptCost = ares.Cost
		report.AdaptEvals = ares.Stats.Evaluations
		report.AdaptMillis = adaptElapsed.Milliseconds()
	}

	report.PeakRSSBytes = peakRSS()

	var w io.Writer = stdout
	if opts.out != "" {
		f, err := os.Create(opts.out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&report)
}

// carryAssignment rebinds an assignment onto a perturbed model that shares
// sizes, capacities and primaries, replaying every non-primary replica.
func carryAssignment(mo *sparse.Model, a *sparse.Assignment) (*sparse.Assignment, error) {
	out := sparse.NewAssignment(mo)
	for k := 0; k < mo.Objects(); k++ {
		for _, i := range a.Replicators(k) {
			if i == mo.Primary(k) {
				continue
			}
			if err := out.Add(int(i), k); err != nil {
				return nil, fmt.Errorf("object %d site %d: %w", k, i, err)
			}
		}
	}
	return out, nil
}

// peakRSS returns the process's peak resident set in bytes: VmHWM from
// /proc/self/status where available (Linux), else the Go runtime's
// OS-reserved total as a coarse upper bound.
func peakRSS() int64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseInt(fields[1], 10, 64); err == nil {
					return kb * 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Sys)
}
