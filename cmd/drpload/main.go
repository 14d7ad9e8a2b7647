// Command drpload is the open-loop load harness: it boots a live netnode
// cluster over TCP on loopback, deploys a replication scheme, and drives
// a deterministic seeded arrival schedule against it at a fixed offered
// rate — Poisson or flash-crowd arrivals, Zipf object popularity, a
// per-site origin mix, optional WAN link latency injected through the
// fault middleware. Latencies are recorded from each request's intended
// send time (coordinated-omission-safe) into log-linear histograms, the
// run's own accounting is cross-checked against the cluster's drp_net_*
// counters, and the report is gated by an SLO expression.
//
// Usage:
//
//	drpload -sites 4 -objects 40 -rate 500 -duration 2s
//	drpload -algo gra -geo wan3 -slo 'p99<250ms,err<1%,tput>90%'
//	drpload -arrival bursty -burst-mult 10 -burst-start 500ms -burst-dur 300ms
//	drpload -compare none,sra -out BENCH_load.json
//	drpload -profile load.json -metrics-out drp_net.json
//
// -compare replays the byte-identical schedule against two placements on
// two fresh clusters and reports the p50/p99 and NTC deltas; the report
// carries both schedule digests so the identical-stream claim is
// checkable. -out writes the canonical BENCH_load.json; the exit status
// is non-zero when the SLO fails or the metrics cross-check mismatches.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"drp"
	"drp/internal/cli"
	"drp/internal/fault"
	"drp/internal/load"
	"drp/internal/metrics"
	"drp/internal/netnode"
	"drp/internal/spans"
	"drp/internal/store"
)

func main() { cli.Main("drpload", run) }

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("drpload", flag.ContinueOnError)
	prob := cli.Problem{Sites: 4, Objects: 40}
	prob.Register(fs, "sites", "objects", "update", "capacity", "seed", "in")
	tel := cli.Telemetry{Noun: "request"}
	tel.Register(fs, "metrics-out", "trace-out")
	var (
		algo = fs.String("algo", "sra", "placement: none | sra | gra, or the path of a replication scheme JSON file")

		rate      = fs.Float64("rate", 500, "offered arrival rate in requests per second")
		duration  = fs.Duration("duration", 2*time.Second, "schedule length")
		arrival   = fs.String("arrival", load.ArrivalPoisson, "arrival process: poisson | uniform | bursty")
		burstMult = fs.Float64("burst-mult", 0, "rate multiplier inside the burst window (bursty)")
		burstAt   = fs.Duration("burst-start", 0, "burst window start offset (bursty)")
		burstDur  = fs.Duration("burst-dur", 0, "burst window length (bursty)")
		burstFoc  = fs.Float64("burst-focus", 0, "fraction of burst requests redirected to the hottest object (bursty)")
		writeFrac = fs.Float64("write-frac", 0.10, "fraction of requests that are writes")
		skew      = fs.Float64("skew", 0.8, "Zipf exponent of object popularity (0 = uniform)")
		origins   = fs.String("origins", "", "comma-separated per-site origin weights (default: uniform)")
		workers   = fs.Int("workers", 0, "max in-flight requests (0 = default pool)")
		geo       = fs.String("geo", load.GeoNone, "injected link-latency profile: none | lan | wan3")
		profile   = fs.String("profile", "", "load profile JSON (overrides the schedule flags)")

		sloExpr = fs.String("slo", "", `SLO gate, e.g. "p99<250ms,err<1%,tput>90%" (read./write. prefixes scope latency terms)`)
		out     = fs.String("out", "", "write the canonical report JSON (BENCH_load.json) to this file")
		compare = fs.String("compare", "", `A/B mode: two comma-separated placements ("none,sra", "sra,gra", or two scheme files) replaying the identical schedule`)
	)
	if err := cli.Parse(fs, args, tel.Check); err != nil {
		return err
	}
	tel.TraceClock = "wall" // latencies are the point of a load run; there is no -trace-clock

	slo, err := load.ParseSLO(*sloExpr)
	if err != nil {
		return err
	}
	// -compare drives two clusters; one span file or one registry
	// snapshot cannot describe both.
	switch {
	case *workers < 0:
		return fmt.Errorf("-workers %d cannot be negative", *workers)
	case *compare != "" && tel.TraceOut != "":
		return fmt.Errorf("-compare runs two clusters; -trace-out needs a single-placement run")
	case *compare != "" && tel.MetricsOut != "":
		return fmt.Errorf("-compare runs two clusters; -metrics-out needs a single-placement run")
	}

	p, err := prob.Load()
	if err != nil {
		return err
	}

	var pr load.Profile
	if *profile != "" {
		pr, err = load.LoadProfile(*profile, p.Sites())
		if err != nil {
			return err
		}
	} else {
		pr = load.DefaultProfile()
		pr.Seed = prob.Seed
		pr.Rate = *rate
		pr.DurationMS = duration.Milliseconds()
		pr.Arrival = *arrival
		pr.BurstMult = *burstMult
		pr.BurstStartMS = burstAt.Milliseconds()
		pr.BurstEndMS = (*burstAt + *burstDur).Milliseconds()
		pr.BurstFocus = *burstFoc
		pr.WriteFraction = *writeFrac
		pr.Skew = *skew
		pr.Geo = *geo
		if *origins != "" {
			pr.Origins, err = parseWeights(*origins)
			if err != nil {
				return fmt.Errorf("-origins: %w", err)
			}
		}
	}

	sched, err := load.BuildSchedule(p.Sites(), p.Objects(), pr)
	if err != nil {
		return err
	}
	if len(sched.Requests) == 0 {
		return fmt.Errorf("schedule is empty: rate %.3g req/s over %s produced no arrivals", pr.Rate, *duration)
	}

	if *compare != "" {
		names := strings.Split(*compare, ",")
		if len(names) != 2 {
			return fmt.Errorf("-compare wants exactly two placements, got %q", *compare)
		}
		var reps [2]*load.Report
		for i, name := range names {
			reps[i], err = runScheme(p, strings.TrimSpace(name), prob.Seed, pr, sched, *workers, slo, nil, metrics.NewRegistry(), stdout)
			if err != nil {
				return err
			}
		}
		cmp := load.NewCompare(reps[0], reps[1])
		fmt.Fprint(stdout, cmp.Text())
		if *out != "" {
			data, err := cmp.Canonical()
			if err != nil {
				return err
			}
			if err := os.WriteFile(*out, data, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote comparison to %s\n", *out)
		}
		if !cmp.SameSchedule {
			return fmt.Errorf("comparison drove different schedules (digests %.12s… vs %.12s…)", reps[0].ScheduleDigest, reps[1].ScheduleDigest)
		}
		return gateCheck(reps[:]...)
	}

	// The cross-check needs the cluster's counters with or without
	// -metrics-out; the flag only decides whether they are also written.
	tel.Reg = metrics.NewRegistry()
	if err := tel.Open(stdout); err != nil {
		return err
	}
	defer cli.CloseInto(&err, tel.Close)

	rep, err := runScheme(p, *algo, prob.Seed, pr, sched, *workers, slo, tel.Tracer, tel.Reg, stdout)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, rep.Text())
	if *out != "" {
		data, err := rep.Canonical()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote report to %s\n", *out)
	}
	return gateCheck(rep)
}

// gateCheck turns failed gates into a non-zero exit.
func gateCheck(reps ...*load.Report) error {
	for _, rep := range reps {
		if rep.Metrics != nil && !rep.Metrics.Match {
			return fmt.Errorf("scheme %s: metrics cross-check mismatch: %s", rep.Scheme, rep.Metrics.Describe())
		}
		if !rep.SLO.Pass {
			return fmt.Errorf("scheme %s: SLO %q not met", rep.Scheme, rep.SLO.Expr)
		}
	}
	return nil
}

// runScheme boots a fresh cluster, deploys the named placement, injects
// the profile's link latency, replays the schedule open loop and returns
// the cross-checked report.
func runScheme(p *drp.Problem, name string, seed uint64, pr load.Profile, sched *load.Schedule,
	workers int, slo *load.SLO, tracer *spans.Tracer, reg *metrics.Registry, stdout io.Writer) (*load.Report, error) {
	params := drp.DefaultGRAParams()
	params.Seed = seed
	scheme, err := cli.ResolvePlacement(p, name, params)
	if err != nil {
		return nil, err
	}

	netnode.RegisterMetricFamilies(reg)
	store.RegisterMetricFamilies(reg)

	cluster, err := netnode.StartLocal(p)
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	cluster.EnableMetrics(reg)
	if tracer != nil {
		cluster.EnableTracing(tracer)
	}

	migration, err := cluster.Deploy(scheme)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "booted %d TCP sites, deployed %s (%d replicas, migration cost %d)\n",
		p.Sites(), name, scheme.TotalReplicas(), migration)

	// Geo latency rides the fault middleware: an injector built from the
	// profile's link-latency plan delays every dial on a matching link.
	plan, err := pr.LatencyPlan(p.Sites())
	if err != nil {
		return nil, err
	}
	if len(plan.Events) > 0 {
		fault.Attach(cluster, fault.NewInjector(plan))
		fmt.Fprintf(stdout, "injecting link latency (%s, %d links)\n", geoLabel(pr), len(plan.Events))
	}

	before := load.CaptureNetCounters(reg)
	res, err := load.Run(load.ClusterTarget{C: cluster}, sched, load.Options{Workers: workers})
	if err != nil {
		return nil, err
	}
	mc := load.CrossCheck(res, reg, before)
	return load.BuildReport(name, pr, sched, res, slo, &mc), nil
}

func geoLabel(pr load.Profile) string {
	if len(pr.MatrixMS) > 0 {
		return "matrix"
	}
	return pr.Geo
}

// parseWeights parses "1,0,2.5" into origin weights.
func parseWeights(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		w, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("bad weight %q", f)
		}
		out = append(out, w)
	}
	return out, nil
}
