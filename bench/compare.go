package main

import (
	"fmt"
	"io"
	"math"
)

// gate is how `bench compare` judges one end-to-end metric. The driver
// gates the five universal metrics by BENCHMARK.json's bounds; this table
// adds the workload-specific ones and is stricter where two reports of the
// same seed allow it: the counts the stream determines must be equal.
// Timings and rates use timingBound, the driver's bound on the universal
// timings (README, Noise).
type gate struct {
	name  string
	rel   float64 // relative bound
	floor float64 // differences below this (in the metric's unit) never count
	exact bool    // any difference counts
}

const timingBound = 0.25

var gates = []gate{
	{name: "setup_s", rel: timingBound, floor: 0.050},
	{name: "round_s", rel: timingBound},
	{name: "op_p50_ms", rel: timingBound},
	{name: "ntc_per_req", exact: true},
	{name: "rss_mb", rel: 0.20},
	{name: "e2e.throughput_rps", rel: timingBound},
	{name: "e2e.read_p50_ms", rel: timingBound},
	{name: "e2e.read_p90_ms", rel: timingBound},
	{name: "e2e.write_p50_ms", rel: timingBound},
	{name: "e2e.write_p90_ms", rel: timingBound},
	{name: "e2e.recover_s", rel: timingBound, floor: 0.050},
	{name: "e2e.solve_s", rel: timingBound},
	{name: "e2e.adapt_s", rel: timingBound},
	{name: "e2e.savings_pct", exact: true},
	{name: "e2e.adapt_savings_pct", exact: true},
	{name: "e2e.fail_frac", exact: true},
}

// Verdicts.
const (
	vSame       = "same"
	vWorse      = "worse"
	vBetter     = "better"
	vUnresolved = "unresolved"
)

// spread is a value's quartile distance as a share of its median.
func (v value) spread() float64 {
	if v.N < 2 || v.Value == 0 {
		return 0
	}
	return math.Abs((v.Q3 - v.Q1) / v.Value)
}

// judge compares B against A. A difference counts only when it exceeds the
// bound, the floor and the run-to-run spread of both sides; a spread wider
// than the bound with no such difference is unresolved, not unchanged.
func judge(g gate, better string, a, b value) string {
	worse := b.Value - a.Value // positive = B is worse
	if better == "higher" {
		worse = -worse
	}
	if g.exact {
		switch {
		case worse > 0:
			return vWorse
		case worse < 0:
			return vBetter
		}
		return vSame
	}
	rel := 0.0
	if a.Value != 0 {
		rel = worse / math.Abs(a.Value)
	}
	noise := math.Max(a.spread(), b.spread())
	resolved := math.Abs(rel) > g.rel && math.Abs(rel) > noise && math.Abs(worse) > g.floor
	switch {
	case resolved && rel > 0:
		return vWorse
	case resolved:
		return vBetter
	case noise > g.rel && math.Max(math.Abs(a.Q3-a.Q1), math.Abs(b.Q3-b.Q1)) > g.floor:
		return vUnresolved
	}
	return vSame
}

// compareReports prints one row per (workload, end-to-end metric) and
// reports whether B passes: no row worse.
func compareReports(w io.Writer, a, b *report) (pass bool, err error) {
	pass = true
	fmt.Fprintf(w, "A: commit %s seed %d   B: commit %s seed %d\n", a.Commit, a.Seed, b.Commit, b.Seed)
	fmt.Fprintf(w, "%-13s %-22s %12s %-25s %12s %-25s %6s  %s\n", "workload", "metric", "A", "[q1, q3]", "B", "[q1, q3]", "bound", "verdict")
	counts := map[string]int{}
	for _, ra := range a.Workloads {
		var rb *result
		for i := range b.Workloads {
			if b.Workloads[i].Workload == ra.Workload {
				rb = &b.Workloads[i]
			}
		}
		if rb == nil {
			return false, fmt.Errorf("workload %s is missing from B", ra.Workload)
		}
		if ra.StreamDigest != rb.StreamDigest {
			return false, fmt.Errorf("%s: the two reports measured different inputs (digests %.12s vs %.12s): use the same seed", ra.Workload, ra.StreamDigest, rb.StreamDigest)
		}
		if findWorkload(ra.Workload) == nil {
			return false, fmt.Errorf("unknown workload %s", ra.Workload)
		}
		for _, g := range gates {
			va, okA := ra.Metrics[g.name]
			vb, okB := rb.Metrics[g.name]
			if !okA && !okB {
				continue // not applicable to this workload
			}
			if okA != okB {
				return false, fmt.Errorf("%s: %s is in only one report", ra.Workload, g.name)
			}
			verdict := judge(g, declared[g.name].Better, va, vb)
			counts[verdict]++
			if verdict == vWorse {
				pass = false
			}
			bound := fmt.Sprintf("%.2f", g.rel)
			if g.exact {
				bound = "exact"
			}
			quart := func(v value) string {
				if v.N < 2 {
					return ""
				}
				return fmt.Sprintf("[%.5g, %.5g]", v.Q1, v.Q3)
			}
			fmt.Fprintf(w, "%-13s %-22s %12.6g %-25s %12.6g %-25s %6s  %s\n",
				ra.Workload, g.name, va.Value, quart(va), vb.Value, quart(vb), bound, verdict)
		}
	}
	fmt.Fprintf(w, "%d same, %d better, %d worse, %d unresolved\n", counts[vSame], counts[vBetter], counts[vWorse], counts[vUnresolved])
	return pass, nil
}

func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare A.json B.json")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	a, err := readReport(args[0])
	if err != nil {
		return fail(err)
	}
	b, err := readReport(args[1])
	if err != nil {
		return fail(err)
	}
	pass, err := compareReports(stdout, a, b)
	if err != nil {
		return fail(err)
	}
	if !pass {
		return 1
	}
	return 0
}
