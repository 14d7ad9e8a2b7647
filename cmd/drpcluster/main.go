// Command drpcluster simulates a distributed system serving reads and
// writes under the paper's replication policy, with a monitor site
// re-optimising the replication scheme each epoch while the read/write
// patterns drift.
//
// Usage:
//
//	drpcluster -sites 20 -objects 60 -epochs 6 -policy agra+mini -drift 0.2
//	drpcluster -policy none -fault-plan plan.json   # the plan's crash rule, read per epoch
//	drpcluster -data-dir /var/lib/drp   # journal the scheme, resume on rerun
//
// It prints one row per epoch: measured serving cost versus the analytic
// model, migrations, failures and savings, then a one-line summary.
//
// With -data-dir the monitor journals its deployed scheme after every epoch
// as one record, dir/journal.snap, replaced atomically (see
// drp/internal/store.Journal); a rerun on the same directory starts from
// the recorded scheme instead of the greedy seed, so a monitor killed
// between epochs loses no placement decision. A damaged record, or a
// journal.log left by the retired log format, stops the run instead of
// re-seeding. The journal has nothing to tune: drpcluster takes no -fsync
// or -snapshot-every (those tune drpnet's site logs).
//
// Observability: -listen-metrics serves live Prometheus text at /metrics
// (plus /debug/pprof) while the simulation runs; -serve-for keeps the
// endpoint up after the last epoch so a scraper can collect the final
// state. -metrics-out snapshots the same registry to a JSON file and
// -events streams per-epoch and per-adaptation JSONL events.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"drp/internal/agra"
	"drp/internal/cli"
	"drp/internal/cluster"
	"drp/internal/core"
	"drp/internal/fault"
	"drp/internal/gra"
	"drp/internal/metrics"
	"drp/internal/netnode"
	"drp/internal/plan"
	"drp/internal/sra"
	"drp/internal/store"
	"drp/internal/workload"
)

func main() { cli.Main("drpcluster", run) }

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("drpcluster", flag.ContinueOnError)
	prob := cli.Problem{Sites: 20, Objects: 60}
	prob.Register(fs, "sites", "objects", "update", "capacity", "seed")
	tel := cli.Telemetry{Noun: "epoch"}
	tel.Register(fs, "listen-metrics", "serve-for", "metrics-out", "events", "trace-out", "trace-sample", "trace-clock")
	var dur cli.Durability
	dur.Register(fs, "data-dir")
	var (
		epochs    = fs.Int("epochs", 6, "measurement periods to simulate")
		policy    = fs.String("policy", "agra+mini", "monitor policy: none | sra | agra | agra+mini | gra")
		drift     = fs.Float64("drift", 0.2, "share of objects changing pattern each epoch (0 disables)")
		driftCh   = fs.Float64("drift-ch", 6.0, "pattern change magnitude (6.0 = +600%)")
		driftR    = fs.Float64("drift-reads", 0.5, "share of drifting objects whose reads (vs updates) grow")
		adaptTO   = fs.Duration("adapt-timeout", 0, "wall-clock cap per epoch re-optimisation; a missed deadline keeps the current scheme (0 = none)")
		adaptBud  = fs.Int("adapt-budget", 0, "cost-model evaluation cap per epoch re-optimisation (0 = none)")
		faultPlan = fs.String("fault-plan", "", "derive site outages from this fault plan JSON: a site is down in every epoch the plan's crash and restart events put it down at that step; other kinds are wire-level and ignored here")
		compare   = fs.Bool("compare", false, "run every policy on identical traffic and print a comparison table")
		planOut   = fs.String("plan-out", "", "write the scheme in force after the last epoch as a canonical placement-plan JSON to this file")
	)
	if err := cli.Parse(fs, args, tel.Check, dur.Check); err != nil {
		return err
	}

	// Reject flag combinations that would otherwise be silently ignored or
	// quietly do something other than what was asked.
	switch {
	case !(*drift >= 0 && *drift <= 1):
		return fmt.Errorf("-drift %g: the share of drifting objects must be within [0, 1]", *drift)
	case !(*driftR >= 0 && *driftR <= 1):
		return fmt.Errorf("-drift-reads %g: the read share must be within [0, 1]", *driftR)
	case *compare && dur.Dir != "":
		return fmt.Errorf("-compare runs every policy on the same traffic and cannot journal a single scheme history; drop -data-dir")
	case *compare && *planOut != "":
		return fmt.Errorf("-compare produces one scheme per policy; -plan-out needs a single-policy run")
	case *compare && tel.TraceOut != "":
		return fmt.Errorf("-compare interleaves every policy's epochs; -trace-out needs a single-policy run")
	}

	// -policy names one of the monitor policies, -compare runs them all.
	all := []cluster.Policy{cluster.PolicyNone, cluster.PolicySRA, cluster.PolicyAGRA, cluster.PolicyAGRAMini, cluster.PolicyGRA}
	var pol cluster.Policy
	for _, candidate := range all {
		if candidate.String() == *policy {
			pol = candidate
		}
	}
	if pol == 0 {
		return fmt.Errorf("unknown policy %q", *policy)
	}

	p, err := prob.Load()
	if err != nil {
		return err
	}
	initial := sra.Run(p, sra.Options{}).Scheme

	graParams := gra.DefaultParams()
	graParams.PopSize = 20
	graParams.Generations = 20
	cfg := cluster.Config{
		Epochs:       *epochs,
		Policy:       pol,
		GRAParams:    graParams,
		AGRAParams:   agra.DefaultParams(),
		Seed:         prob.Seed,
		EpochTimeout: *adaptTO,
		AdaptBudget:  *adaptBud,
	}
	if *drift > 0 {
		cfg.Drift = &workload.ChangeSpec{Ch: *driftCh, ObjectShare: *drift, ReadShare: *driftR}
	}

	// The journal holds the latest epoch's placement plan, the format
	// drpnet's coordinator journals too; a rerun resumes from it.
	if dur.Dir != "" {
		journal, err := store.OpenJournal(dur.Dir)
		if err != nil {
			return err
		}
		if epoch, data, ok := journal.LatestPlan(); ok {
			pl, err := plan.Unmarshal(data)
			if err == nil {
				initial, err = pl.Scheme(p)
			}
			if err != nil {
				return fmt.Errorf("journal %s: %w", dur.Dir, err)
			}
			fmt.Fprintf(stdout, "resuming from journal: scheme of epoch %d (%d replicas)\n",
				epoch, initial.TotalReplicas())
		}
		cfg.OnEpoch = func(epoch int, scheme *core.Scheme, _ *cluster.EpochStats) error {
			data, err := plan.FromScheme(scheme).Marshal()
			if err != nil {
				return err
			}
			return journal.RecordPlan(epoch, data)
		}
	}
	if *faultPlan != "" {
		fp, err := fault.LoadPlan(*faultPlan, p.Sites())
		if err != nil {
			return err
		}
		// The epoch simulator's unit of time is the epoch: a site is down
		// in an epoch when the plan's crash rule says so at that step.
		cfg.Down = func(site, epoch int) bool { return fp.Down(site, int64(epoch)) }
	}

	// A live endpoint exposes the full metric surface from the first scrape:
	// families a quiet run never touches still appear, at zero.
	err = tel.Open(stdout,
		func(reg *metrics.Registry) { metrics.RegisterSolverFamilies(reg, pol.String()) },
		cluster.RegisterMetricFamilies, netnode.RegisterMetricFamilies)
	if err != nil {
		return err
	}
	defer cli.CloseInto(&err, tel.Close)
	cfg.Metrics, cfg.Events, cfg.Tracer = tel.Reg, tel.Events, tel.Tracer

	if *compare {
		cmp, err := cluster.Compare(p, initial, cfg, all)
		if err != nil {
			return err
		}
		return cmp.Render(stdout)
	}

	res, err := cluster.Run(p, initial, cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "cluster: %d sites, %d objects, policy=%s, drift=%.0f%%/epoch\n\n",
		prob.Sites, prob.Objects, pol, 100**drift)
	fmt.Fprintf(stdout, "%5s %9s %8s %12s %12s %7s %9s %8s %8s %8s %8s %9s\n",
		"epoch", "reads", "writes", "serveNTC", "modelNTC", "saved%", "meanRead", "p50Read", "p95Read", "migrate", "changed", "failures")
	degraded := 0
	for _, e := range res.Epochs {
		mark := ""
		if e.AdaptDegraded {
			mark = " *"
			degraded++
		}
		fmt.Fprintf(stdout, "%5d %9d %8d %12d %12d %7.2f %9.1f %8d %8d %8d %8d %9d%s\n",
			e.Epoch, e.Reads, e.Writes, e.ServeNTC, e.ModelNTC, e.Savings,
			e.MeanReadCost, e.ReadCostP50, e.ReadCostP95, e.Migrations, e.Changed, e.FailedReads+e.FailedWrites, mark)
	}
	fmt.Fprintf(stdout, "\nsummary: epochs=%d degraded=%d migrations=%d migrationNTC=%d serveNTC=%d total NTC (serve+migrate)=%d\n",
		len(res.Epochs), res.DegradedEpochs(), res.TotalMigrations(), res.TotalMigrationNTC(), res.TotalServeNTC(), res.TotalNTC())
	if degraded > 0 {
		fmt.Fprintf(stdout, "adapt misses (*): %d epoch(s) kept the previous scheme after hitting the re-optimisation cap\n", degraded)
	}
	if *planOut != "" {
		data, err := plan.FromScheme(res.FinalScheme).Marshal()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*planOut, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote final scheme as a placement plan to %s\n", *planOut)
	}
	return nil
}
