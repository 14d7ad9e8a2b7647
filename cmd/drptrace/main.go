// Command drptrace analyses a span file recorded by drpnet or drpcluster
// -trace-out: it reassembles the per-request trees, summarises per-edge
// latency and transfer cost, surfaces the slowest exemplars with their
// critical paths, renders waterfalls, and — given the fault plan the run
// was injected with — attributes degraded spans to the fault events that
// caused them.
//
// Usage:
//
//	drptrace -in spans.jsonl
//	drptrace -in spans.jsonl -slowest 5 -waterfall 2
//	drptrace -in spans.jsonl -fault-plan plan.json
//
// Input is one JSON span per line (see drp/internal/spans). All output is
// a pure function of the input file, so span files recorded with the
// logical clock produce byte-identical reports run after run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"drp/internal/cli"
	"drp/internal/fault"
	"drp/internal/spans"
)

func main() { cli.Main("drptrace", run) }

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("drptrace", flag.ContinueOnError)
	var (
		in        = fs.String("in", "", "span JSONL file recorded with -trace-out (required)")
		slowest   = fs.Int("slowest", 3, "show the N slowest traces with their critical paths (0 = skip)")
		waterfall = fs.Int("waterfall", 1, "render waterfalls for the N slowest traces (0 = skip)")
		edges     = fs.Bool("edges", true, "print the per-edge latency / NTC breakdown")
		faultPlan = fs.String("fault-plan", "", "cross-reference span fault verdicts against this plan JSON")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	if *slowest < 0 || *waterfall < 0 {
		return fmt.Errorf("-slowest and -waterfall cannot be negative")
	}

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	sps, err := spans.Decode(f)
	if err != nil {
		return err
	}
	if len(sps) == 0 {
		return fmt.Errorf("%s holds no spans", *in)
	}
	traces := spans.Assemble(sps)
	printSummary(stdout, sps, traces)
	if *edges {
		printEdges(stdout, traces)
	}
	if *slowest > 0 {
		printSlowest(stdout, traces, *slowest)
	}
	if *waterfall > 0 {
		printWaterfalls(stdout, traces, *waterfall)
	}
	if *faultPlan != "" {
		plan, err := loadPlan(*faultPlan)
		if err != nil {
			return err
		}
		printFaultCrossRef(stdout, sps, plan)
	}
	return nil
}

func printSummary(w io.Writer, sps []spans.Span, traces []*spans.Trace) {
	var errs int
	var ntc int64
	lo, hi := sps[0].Start, sps[0].End
	for _, s := range sps {
		if s.Err != "" {
			errs++
		}
		ntc += s.NTC
		if s.Start < lo {
			lo = s.Start
		}
		if s.End > hi {
			hi = s.End
		}
	}
	orphaned := 0
	for _, t := range traces {
		if len(t.Roots) > 1 {
			orphaned += len(t.Roots) - 1
		}
	}
	fmt.Fprintf(w, "%d spans in %d traces, clock [%d,%d]\n", len(sps), len(traces), lo, hi)
	fmt.Fprintf(w, "  errors: %d, summed ntc: %d\n", errs, ntc)
	if orphaned > 0 {
		fmt.Fprintf(w, "  WARNING: %d orphaned spans (truncated file?)\n", orphaned)
	}
}

func printEdges(w io.Writer, traces []*spans.Trace) {
	fmt.Fprintf(w, "\nedges (latency in clock units):\n")
	fmt.Fprintf(w, "  %-16s %7s %6s %8s %8s %8s %12s\n", "name", "count", "errs", "p50", "p99", "max", "ntc")
	for _, e := range spans.Edges(traces) {
		fmt.Fprintf(w, "  %-16s %7d %6d %8d %8d %8d %12d\n",
			e.Name, e.Count, e.Errors, e.P50, e.P99, e.Max, e.TotalNTC)
	}
}

func printSlowest(w io.Writer, traces []*spans.Trace, n int) {
	top := spans.Slowest(traces, n)
	fmt.Fprintf(w, "\nslowest %d traces:\n", len(top))
	for i, t := range top {
		root := t.Root()
		fmt.Fprintf(w, "  %d. trace %s %s dur=%d spans=%d ntc=%d\n",
			i+1, t.ID, root.Label(), t.Dur(), t.Count, t.NTC())
		path := spans.CriticalPath(root)
		labels := make([]string, len(path))
		for j, s := range path {
			labels[j] = fmt.Sprintf("%s[%d]", s.Label(), s.Dur())
		}
		fmt.Fprintf(w, "     critical path: %s\n", strings.Join(labels, " -> "))
	}
}

func printWaterfalls(w io.Writer, traces []*spans.Trace, n int) {
	top := spans.Slowest(traces, n)
	fmt.Fprintf(w, "\nwaterfall of the %d slowest:\n", len(top))
	for _, t := range top {
		spans.Waterfall(w, t)
	}
}

// loadPlan reads a fault plan without a site universe to validate
// against: the span file does not carry the cluster size and the
// cross-reference only needs the event list.
func loadPlan(path string) (fault.Plan, error) {
	f, err := os.Open(path)
	if err != nil {
		return fault.Plan{}, err
	}
	defer f.Close()
	return fault.ReadPlan(f)
}

// printFaultCrossRef attributes fault-verdict spans to the plan events
// whose injected error they carry, so a degraded trace reads back to the
// exact crash or blackhole that caused it.
func printFaultCrossRef(w io.Writer, sps []spans.Span, plan fault.Plan) {
	matched := make(map[int]int, len(plan.Events)) // event index → spans
	claimed := make([]bool, len(sps))
	for ei, e := range plan.Events {
		var needles []string
		switch e.Kind {
		case fault.KindCrash:
			needles = []string{fmt.Sprintf("site %d is down", e.Site)}
		case fault.KindBlackhole:
			needles = []string{
				fmt.Sprintf("link %d↔%d blackholed", e.Site, e.Peer),
				fmt.Sprintf("link %d↔%d blackholed", e.Peer, e.Site),
			}
		case fault.KindDrop:
			needles = []string{
				fmt.Sprintf("message %d→%d dropped", e.Site, e.Peer),
				fmt.Sprintf("message %d→%d dropped", e.Peer, e.Site),
			}
		default:
			// Restart closes a crash window and latency spikes leave no
			// error; neither marks spans.
			continue
		}
		for si, s := range sps {
			if claimed[si] || s.Verdict == "" {
				continue
			}
			for _, needle := range needles {
				if strings.Contains(s.Err, needle) {
					matched[ei]++
					claimed[si] = true
					break
				}
			}
		}
	}
	fmt.Fprintf(w, "\nfault plan (seed %d, %d events):\n", plan.Seed, len(plan.Events))
	for ei, e := range plan.Events {
		var desc string
		switch e.Kind {
		case fault.KindCrash, fault.KindRestart:
			desc = fmt.Sprintf("%-9s site %d", e.Kind, e.Site)
		default:
			desc = fmt.Sprintf("%-9s %d↔%d", e.Kind, e.Site, e.Peer)
		}
		window := fmt.Sprintf("steps [%d,%d)", e.Step, e.Until)
		if e.Until == 0 {
			window = fmt.Sprintf("steps [%d,∞)", e.Step)
		}
		fmt.Fprintf(w, "  %s %s: %d degraded spans\n", desc, window, matched[ei])
	}
	unclaimed := 0
	for si, s := range sps {
		if s.Verdict != "" && s.Verdict != "queued" && s.Verdict != "stale" && !claimed[si] {
			unclaimed++
		}
	}
	if unclaimed > 0 {
		fmt.Fprintf(w, "  %d fault-verdict spans match no event in this plan\n", unclaimed)
	}
}
