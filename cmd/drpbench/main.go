// Command drpbench regenerates the paper's evaluation figures (Section 6).
//
// Usage:
//
//	drpbench -fig 1a                 # one figure, quick preset
//	drpbench -fig all -preset paper  # full campaign at paper fidelity
//	drpbench -fig 3a -csv            # machine-readable output
//	drpbench -preset paper -timeout 5s -budget 2000000  # time-boxed GA cells
//
// Figures: 1a 1b 1c 1d (SRA/GRA savings & replicas vs sites/objects),
// 2a 2b (runtimes vs sites), 3a 3b (savings vs update ratio / capacity),
// 4a 4b 4c 4d (adaptive AGRA policies under pattern changes).
//
// Observability: -metrics-out writes a JSON snapshot of the campaign's
// solver instruments (drp_solver_* families) after all figures render;
// -events streams per-iteration solver progress as JSONL. The deterministic
// part of the snapshot is identical at any GOMAXPROCS.
//
// Sweep cells and the solvers inside them run on GOMAXPROCS workers, and
// every figure but the run times of 2a, 2b and 4d is identical at any
// setting; take 2a/2b with GOMAXPROCS=1 for the paper's serial timings.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"drp/internal/cli"
	"drp/internal/experiments"
	"drp/internal/metrics"
)

func main() {
	cli.Main("drpbench", func(args []string, stdout io.Writer) error { return run(args, stdout, os.Stderr) })
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("drpbench", flag.ContinueOnError)
	var caps cli.Caps
	caps.Register(fs)
	var tel cli.Telemetry
	tel.Register(fs, "metrics-out", "events")
	var (
		fig      = fs.String("fig", "all", "figure id (1a..4d) or 'all'")
		preset   = fs.String("preset", "quick", "campaign preset: quick | paper | tiny")
		networks = fs.Int("networks", 0, "override: networks averaged per point")
		gens     = fs.Int("gens", 0, "override: GRA generations")
		pop      = fs.Int("pop", 0, "override: GRA population size")
		seed     = fs.Uint64("seed", 0, "override: campaign seed")
		csv      = fs.Bool("csv", false, "emit CSV instead of tables")
		svgDir   = fs.String("svg", "", "also write each figure as an SVG chart into this directory")
		quiet    = fs.Bool("q", false, "suppress progress output")

		sparseBench   = fs.Bool("sparse-bench", false, "run the sparse-core scaling benchmark instead of the figure campaign")
		sparseSites   = fs.Int("sparse-sites", 100, "sparse bench: site count M")
		sparseObjects = fs.Int("sparse-objects", 1_000_000, "sparse bench: object count N")
		sparseSeed    = fs.Uint64("sparse-seed", 1, "sparse bench: workload seed")
		sparseAdapt   = fs.Float64("sparse-adapt", 0.01, "sparse bench: fraction of accessed objects perturbed for the adaptive round (0 = skip)")
		sparseOut     = fs.String("sparse-out", "", "sparse bench: write the JSON report to this file (default: stdout)")
	)
	if err := cli.Parse(fs, args, caps.Check, tel.Check); err != nil {
		return err
	}
	if *sparseBench {
		return runSparseBench(sparseBenchOpts{
			sites:   *sparseSites,
			objects: *sparseObjects,
			seed:    *sparseSeed,
			adapt:   *sparseAdapt,
			out:     *sparseOut,
		}, stdout, stderr)
	}
	// Overrides apply when the flag was given, not when its value is
	// truthy — "-seed 0" is a meaningful setting, and an
	// explicit "-networks 0" should fail validation loudly rather than be
	// silently dropped.
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	var cfg experiments.Config
	switch *preset {
	case "quick":
		cfg = experiments.Quick()
	case "paper":
		cfg = experiments.Paper()
	case "tiny":
		cfg = experiments.Tiny()
	default:
		return fmt.Errorf("unknown preset %q", *preset)
	}
	if set["networks"] {
		cfg.Networks = *networks
	}
	if set["gens"] {
		cfg.GRAGens = *gens
	}
	if set["pop"] {
		cfg.GRAPop = *pop
	}
	if set["seed"] {
		cfg.Seed = *seed
	}
	// Cells run concurrently: the -progress observer is synchronized and
	// the telemetry bridge is concurrency-safe by construction.
	if err := tel.Open(stdout); err != nil {
		return err
	}
	defer cli.CloseInto(&err, tel.Close)
	cellRun := caps.Run(stderr)
	cfg.CellTimeout, cfg.CellBudget = cellRun.Timeout, cellRun.Budget
	cfg.Observer = metrics.BridgeObserver(tel.Reg, tel.Events, cellRun.Observer)

	logFn := func(format string, a ...interface{}) {
		if !*quiet {
			fmt.Fprintf(stderr, format+"\n", a...)
		}
	}
	campaign, err := experiments.NewCampaign(cfg, logFn)
	if err != nil {
		return err
	}

	ids := experiments.FigureIDs
	if *fig != "all" {
		ids = strings.Split(*fig, ",")
		for _, id := range ids {
			if !experiments.ValidFigure(id) && id != "summary" && id != "conv" {
				return fmt.Errorf("unknown figure %q (valid: %s, summary, conv)", id, strings.Join(experiments.FigureIDs, " "))
			}
		}
	}
	if *svgDir != "" {
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			return err
		}
	}
	writeSVG := func(result *experiments.FigureResult) error {
		if *svgDir == "" {
			return nil
		}
		f, err := os.Create(filepath.Join(*svgDir, "fig"+result.ID+".svg"))
		if err != nil {
			return err
		}
		defer f.Close()
		return result.RenderSVG(f)
	}
	for _, id := range ids {
		if id == "summary" {
			result, err := experiments.RunSummary(cfg, logFn)
			if err != nil {
				return err
			}
			if err := result.Render(stdout); err != nil {
				return err
			}
			continue
		}
		var result *experiments.FigureResult
		if id == "conv" {
			result, err = experiments.RunConvergence(cfg, logFn)
		} else {
			result, err = campaign.Figure(id)
		}
		if err != nil {
			return err
		}
		if err := writeSVG(result); err != nil {
			return err
		}
		render := result.Render
		if *csv {
			render = result.RenderCSV
		}
		if err := render(stdout); err != nil {
			return err
		}
		if *csv && id != "conv" {
			fmt.Fprintln(stdout) // the campaign's figures are blank-line separated
		}
	}
	return nil
}
