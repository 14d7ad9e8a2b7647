// Command drpsolve solves a Data Replication Problem instance (JSON, as
// produced by drpgen) with one of the implemented algorithms and reports
// the resulting scheme's quality.
//
// Usage:
//
//	drpsolve -algo gra -in problem.json -out scheme.json
//	drpsolve -algo sparse -par 4 -in problem.json
//	drpsolve -algo gra -timeout 2s -budget 100000 -progress -in problem.json
//
// Algorithms are flagsFor's keys (-h lists them); optimal takes tiny instances only.
//
// Anytime controls: -timeout caps wall-clock time, -budget caps cost-model
// evaluations, -progress streams per-iteration status to stderr. An
// interrupted run still prints the best valid scheme found so far; the
// "stopped:" line says why it ended. Flags that do not apply to the chosen
// algorithm are rejected (e.g. -pop with -algo sra).
//
// Observability: -metrics-out writes a JSON snapshot of the run's
// instruments (drp_solver_* families), -events streams structured JSONL
// events (solver.progress, solver.finished), and -manifest writes a
// self-describing run manifest (flags, seed, git revision, final D and its
// eq. 4 term breakdown).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"drp"
	"drp/internal/cli"
	"drp/internal/core"
	"drp/internal/load"
	"drp/internal/metrics"
)

func main() { cli.Main("drpsolve", run) }

// flagsFor maps each algorithm to the flags it consumes beyond the common set
// (any other is an error, not a silent no-op); its keys are the only name list.
var flagsFor = map[string]map[string]bool{
	"sra":      {"timeout": true, "budget": true, "progress": true},
	"gra":      {"seed": true, "pop": true, "gens": true, "par": true, "timeout": true, "budget": true, "progress": true},
	"sparse":   {"par": true, "timeout": true, "budget": true, "progress": true},
	"hill":     {"timeout": true, "budget": true, "progress": true},
	"optimal":  {"maxbits": true, "timeout": true, "budget": true},
	"random":   {"seed": true},
	"readonly": {},
	"none":     {},
}

var commonFlags = map[string]bool{
	"algo": true, "in": true, "out": true, "replay": true,
	"metrics-out": true, "events": true, "manifest": true,
}

func algorithms() string {
	names := make([]string, 0, len(flagsFor))
	for name := range flagsFor {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, " | ")
}

// checkFlags rejects explicitly-set flags the chosen algorithm ignores.
func checkFlags(fs *flag.FlagSet, algo string) error {
	spec, ok := flagsFor[algo]
	if !ok {
		return fmt.Errorf("unknown algorithm %q (have %s)", algo, algorithms())
	}
	var bad []string
	fs.Visit(func(f *flag.Flag) {
		if !commonFlags[f.Name] && !spec[f.Name] {
			bad = append(bad, f.Name)
		}
	})
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("flag -%s does not apply to algorithm %q", bad[0], algo)
	}
	return nil
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("drpsolve", flag.ContinueOnError)
	prob := cli.Problem{Stdin: os.Stdin}
	prob.Register(fs, "in", "seed")
	var caps cli.Caps
	caps.Register(fs)
	var tel cli.Telemetry
	tel.Register(fs, "metrics-out", "events")
	var (
		algo     = fs.String("algo", "sra", "algorithm: "+algorithms())
		out      = fs.String("out", "", "write the scheme as JSON to this file")
		pop      = fs.Int("pop", 50, "GRA population size Np")
		gens     = fs.Int("gens", 80, "GRA generations Ng")
		par      = fs.Int("par", 0, "GRA evaluation workers / sparse proposal workers (0 = all cores, 1 = serial); results identical at any setting")
		maxBits  = fs.Int("maxbits", 24, "optimal: maximum free placement bits")
		replay   = fs.String("replay", "", "price each request of a drpgen -trace schedule (\"<offset-ns> <site> <obj> <r|w>\" lines) under the solved scheme")
		manifest = fs.String("manifest", "", "write a run manifest (JSON) to this file")
	)
	if err := cli.Parse(fs, args, caps.Check, tel.Check); err != nil {
		return err
	}
	if err := checkFlags(fs, *algo); err != nil {
		return err
	}

	if err := tel.Open(stdout); err != nil {
		return err
	}
	defer cli.CloseInto(&err, tel.Close)
	runOpts := caps.Run(os.Stderr)
	runOpts.Observer = metrics.BridgeObserver(tel.Reg, tel.Events, runOpts.Observer)

	p, err := prob.Load()
	if err != nil {
		return err
	}

	var man *metrics.Manifest
	if *manifest != "" {
		man = metrics.NewManifest("drpsolve", args)
		man.Seed = prob.Seed
		man.Sites = p.Sites()
		man.Objects = p.Objects()
		man.Algorithm = *algo
	}

	start := time.Now()
	var scheme *drp.Scheme
	var stats *drp.SolverStats
	switch *algo {
	case "sra":
		res := drp.SRAWithOptions(p, drp.SRAOptions{Run: runOpts})
		scheme, stats = res.Scheme, &res.Stats
	case "gra":
		params := drp.DefaultGRAParams()
		params.PopSize = *pop
		params.Generations = *gens
		params.Seed = prob.Seed
		params.Parallelism = *par
		res, err := drp.GRAWith(p, params, runOpts)
		if err != nil {
			return err
		}
		scheme, stats = res.Scheme, &res.Stats
	case "sparse":
		stats = new(drp.SolverStats)
		if scheme, *stats, err = drp.SparseGreedy(p, *par, runOpts); err != nil {
			return err
		}
	case "random":
		scheme = drp.RandomPlacement(p, prob.Seed)
	case "readonly":
		scheme = drp.ReadOnlyGreedy(p)
	case "hill":
		res := drp.HillClimbWith(p, nil, 0, runOpts)
		scheme, stats = res.Scheme, &res.Stats
	case "none":
		scheme = drp.NoReplication(p)
	case "optimal":
		res, err := drp.OptimalWith(p, *maxBits, runOpts)
		if err != nil {
			return err
		}
		scheme, stats = res.Scheme, &res.Stats
	}
	elapsed := time.Since(start)

	cost := scheme.Cost()
	fmt.Fprintf(stdout, "algorithm:   %s\n", *algo)
	fmt.Fprintf(stdout, "sites:       %d\n", p.Sites())
	fmt.Fprintf(stdout, "objects:     %d\n", p.Objects())
	fmt.Fprintf(stdout, "D' (no repl): %d\n", p.DPrime())
	fmt.Fprintf(stdout, "D (solved):  %d\n", cost)
	fmt.Fprintf(stdout, "NTC savings: %.2f%%\n", p.Savings(cost))
	fmt.Fprintf(stdout, "replicas:    %d beyond primaries\n", scheme.TotalReplicas())
	fmt.Fprintf(stdout, "elapsed:     %v\n", elapsed)
	if stats != nil {
		fmt.Fprintf(stdout, "evaluations: %d\n", stats.Evaluations)
		fmt.Fprintf(stdout, "stopped:     %s\n", stats.Stopped)
		metrics.RecordStats(tel.Reg, *algo, *stats, tel.Events)
	}
	if man != nil {
		terms := scheme.CostTerms()
		man.FinalD = cost
		man.DPrime = p.DPrime()
		man.SavingsPct = p.Savings(cost)
		man.Terms = map[string]int64{
			"read_ntc":   terms.ReadNTC,
			"write_ntc":  terms.WriteNTC,
			"update_ntc": terms.UpdateNTC,
		}
		if stats != nil {
			man.Evaluations = stats.Evaluations
			man.Iterations = stats.Iterations
			man.Stopped = stats.Stopped.String()
		}
		if err := man.Write(*manifest); err != nil {
			return err
		}
	}

	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			return err
		}
		defer f.Close()
		sched, err := load.ReadSchedule(f, p.Sites(), p.Objects())
		if err != nil {
			return fmt.Errorf("-replay %s: %w", *replay, err)
		}
		nearest := core.NewNearestTable(scheme)
		var ntc int64
		for _, r := range sched.Requests {
			c, _ := nearest.Price(r.Site, r.Obj, r.Write, nil) // every site is up: always served
			ntc += c.Total()
		}
		fmt.Fprintf(stdout, "replayed:    %d reads, %d writes -> measured NTC %d\n", sched.Reads, sched.Writes, ntc)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := scheme.Encode(f); err != nil {
			return fmt.Errorf("encode scheme: %w", err)
		}
	}
	return nil
}
