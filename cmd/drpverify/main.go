// Command drpverify soaks the cost model, evaluators and solvers with the
// drp/internal/verify harness: randomly generated instances are checked
// against metamorphic properties of eq. 4 and differential oracles until a
// wall-clock deadline, an iteration cap or a violation.
//
// Usage:
//
//	drpverify -duration 30s -seed 1
//	drpverify -iters 200 -checks eq4-oracle,delta-eval -par 4
//	drpverify -list
//
// On a violation, the failing instance is delta-debugged down to a minimal
// reproducer, printed (or written with -out) as drpgen-compatible problem
// JSON together with the seed that replays it, and the exit status is 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"drp/internal/cli"
	"drp/internal/core"
	"drp/internal/solver"
	"drp/internal/verify"
)

// testCost, when non-nil, replaces the production evaluator inside the
// harness. It exists solely so the CLI tests can drive the failure path —
// shrinking, reporting, reproducer output — end to end; main never sets it.
var testCost func(*core.Scheme) int64

func main() { cli.Main("drpverify", run) }

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("drpverify", flag.ContinueOnError)
	var (
		duration = fs.Duration("duration", 0, "wall-clock soak budget (0 = no deadline)")
		iters    = fs.Int("iters", 0, "instance cap (0 = unbounded; set -duration instead)")
		checks   = fs.String("checks", "", "comma-separated check subset (default: all; see -list)")
		seed     = fs.Uint64("seed", 1, "soak seed; identical seeds replay identical soaks")
		par      = fs.Int("par", 1, "instances verified concurrently (0 = GOMAXPROCS)")
		maxM     = fs.Int("max-sites", 0, "largest generated site count (0 = default 12)")
		maxN     = fs.Int("max-objects", 0, "largest generated object count (0 = default 10)")
		out      = fs.String("out", "", "write a failing reproducer as problem JSON to this file")
		list     = fs.Bool("list", false, "list the registered checks and exit")
		quiet    = fs.Bool("quiet", false, "suppress progress lines")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *list {
		for _, c := range verify.Checks() {
			kind := "general"
			if c.Small {
				kind = "small"
			}
			fmt.Fprintf(stdout, "%-16s %-8s %s\n", c.Name, kind, c.Doc)
		}
		return nil
	}
	if *duration <= 0 && *iters <= 0 {
		return fmt.Errorf("set -duration and/or -iters, otherwise the soak never ends")
	}

	opts := verify.Options{
		Seed:        *seed,
		Iterations:  *iters,
		Parallelism: *par,
		MaxSites:    *maxM,
		MaxObjects:  *maxN,
		Cost:        testCost,
		Run:         solver.Run{Timeout: *duration},
	}
	if *checks != "" {
		opts.Checks = strings.Split(*checks, ",")
	}
	if !*quiet {
		opts.Log = func(format string, a ...interface{}) {
			fmt.Fprintf(os.Stderr, "drpverify: "+format+"\n", a...)
		}
	}

	start := time.Now()
	report, err := verify.Soak(opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "instances: %d\n", report.Instances)
	fmt.Fprintf(stdout, "checks:    %s\n", strings.Join(report.SortedRunCounts(), " "))
	fmt.Fprintf(stdout, "elapsed:   %s\n", time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(stdout, "stopped:   %s\n", report.Stats.Stopped)
	if report.Passed() {
		fmt.Fprintln(stdout, "result:    PASS")
		return nil
	}

	f := report.Failure
	fmt.Fprintln(stdout, "result:    FAIL")
	fmt.Fprintf(stdout, "%v\n", f)
	fmt.Fprintf(stdout, "replay:    drpverify -seed %d -checks %s\n", *seed, f.Check)
	if f.Problem != nil {
		dst := stdout
		if *out != "" {
			file, err := os.Create(*out)
			if err != nil {
				return fmt.Errorf("writing reproducer: %w", err)
			}
			defer file.Close()
			dst = file
			fmt.Fprintf(stdout, "reproducer: %s (%d sites × %d objects, check seed %d)\n",
				*out, f.Problem.Sites(), f.Problem.Objects(), f.Seed)
		} else {
			fmt.Fprintf(stdout, "reproducer (%d sites × %d objects, check seed %d):\n",
				f.Problem.Sites(), f.Problem.Objects(), f.Seed)
		}
		if err := f.Problem.Encode(dst); err != nil {
			return fmt.Errorf("encoding reproducer: %w", err)
		}
	}
	return fmt.Errorf("check %q failed (instance seed %d)", f.Check, f.Seed)
}
