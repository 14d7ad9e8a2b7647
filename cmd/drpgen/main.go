// Command drpgen generates random Data Replication Problem instances
// following the paper's Section 6.1 workload model and writes them as JSON.
//
// Usage:
//
//	drpgen -sites 50 -objects 200 -update 0.05 -capacity 0.15 -seed 1 -o problem.json
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"drp"
	"drp/internal/cli"
	"drp/internal/load"
)

func main() { cli.Main("drpgen", run) }

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("drpgen", flag.ContinueOnError)
	prob := cli.Problem{Sites: 50, Objects: 200}
	prob.Register(fs, "sites", "objects", "update", "capacity", "seed")
	var (
		zipf     = fs.Float64("zipf", 0, "Zipf popularity skew (0 = the paper's uniform reads)")
		out      = fs.String("o", "", "output file (default: stdout)")
		traceOut = fs.String("trace", "", "also write the period's requests, one \"<offset-ns> <site> <obj> <r|w>\" line each, to this file (drpsolve -replay reads it)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var (
		p   *drp.Problem
		err error
	)
	if *zipf != 0 {
		p, err = drp.GenerateZipf(drp.NewZipfSpec(prob.Sites, prob.Objects, prob.Update, prob.Capacity, *zipf), prob.Seed)
	} else {
		p, err = prob.Load()
	}
	if err != nil {
		return err
	}
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := p.Encode(w); err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	if *traceOut != "" {
		tf, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		defer tf.Close()
		bw := bufio.NewWriter(tf)
		err = load.FromCounts(p, prob.Seed+1).EncodeTo(bw)
		if err == nil {
			err = bw.Flush()
		}
		if err != nil {
			return fmt.Errorf("encode trace: %w", err)
		}
	}
	fmt.Fprintf(os.Stderr, "drpgen: M=%d N=%d U=%.1f%% C=%.1f%% seed=%d D'=%d\n",
		prob.Sites, prob.Objects, 100*prob.Update, 100*prob.Capacity, prob.Seed, p.DPrime())
	return nil
}
