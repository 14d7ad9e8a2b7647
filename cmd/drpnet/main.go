// Command drpnet boots the replication system over real TCP sockets on
// the loopback interface: one server per site, a coordinator deploying a
// replication scheme, and a full measurement period of reads and writes
// driven through the wire protocol. It prints the accounted transfer cost
// next to the analytic model's prediction — they match exactly.
//
// Usage:
//
//	drpnet -sites 10 -objects 20                  # generate and run
//	drpnet -in problem.json -algo gra -gens 30    # optimise then serve
//	drpnet -fault-plan plan.json -retry 3 -req-timeout 2s   # chaos run
//	drpnet -data-dir /var/lib/drp -fsync every:64 # durable sites
//	drpnet -members 0,1,2,3 -join 4 -leave 0      # reshape the cluster
//
// With -data-dir every site's state (replica holdings, versions, replica
// sets and primaries, queued writes, accounted NTC) lives in a per-site
// write-ahead log under the directory; a rerun on the same directory
// replays the logs and continues from the recovered state instead of
// re-seeding. -fsync and -snapshot-every tune those site logs.
//
// With -fault-plan the measurement period is served under injected faults
// (site crashes, link blackholes, latency spikes, message drops — see
// internal/fault): degraded requests are reported instead of aborting the
// run, and afterwards queued writes are flushed and the replicas behind
// their primary's version re-synced.
//
// With -members/-join/-leave the run becomes a membership scenario: the
// cluster boots on the founding view, a control plane (SRA founding
// solve, AGRA adaptation per view change) emits a versioned placement
// plan for every join and leave, and the data plane migrates
// incrementally — replicas copy in before anything routes to them, and a
// departing site keeps serving until the plan drains it. Combined with
// -data-dir the coordinator journals each plan before migrating, as one
// atomically replaced record (coordinator/journal.snap); a rerun on the
// same directory boots the reshaped member set recorded in the journal and
// resumes any unfinished migration instead of replaying the scenario.
// -plan-out writes the final adopted plan as canonical JSON.
//
// Observability: -listen-metrics serves the nodes' shared drp_net_* request
// instruments (latency histograms, replica-hit and NTC counters) as
// Prometheus text at /metrics, plus /debug/pprof; -serve-for keeps the
// endpoint up after the traffic finishes. Latency SLOs are gated by
// drpload's -slo over its open-loop runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"drp"
	"drp/internal/cli"
	ctrl "drp/internal/cluster"
	"drp/internal/fault"
	"drp/internal/metrics"
	"drp/internal/netnode"
	"drp/internal/plan"
	"drp/internal/spans"
	"drp/internal/store"
)

func main() { cli.Main("drpnet", run) }

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("drpnet", flag.ContinueOnError)
	prob := cli.Problem{Sites: 10, Objects: 20}
	prob.Register(fs, "sites", "objects", "update", "capacity", "seed", "in")
	tel := cli.Telemetry{Noun: "request"}
	tel.Register(fs, "listen-metrics", "serve-for", "trace-out", "trace-sample", "trace-clock")
	var dur cli.Durability
	dur.Register(fs, "data-dir", "fsync", "snapshot-every")
	var (
		algo = fs.String("algo", "sra", "placement algorithm: none | sra | gra")
		pop  = fs.Int("pop", 16, "GRA population size")
		gens = fs.Int("gens", 15, "GRA generations")

		faultPlan  = fs.String("fault-plan", "", "inject faults from this plan JSON (see internal/fault); degraded requests are reported, then queued writes flush and stale replicas reconcile")
		retries    = fs.Int("retry", 1, "transport attempts per request (1 = no retrying)")
		reqTimeout = fs.Duration("req-timeout", 0, "deadline for each round trip on a peer link, and for opening one (0 = none)")

		members = fs.String("members", "", "comma-separated founding member sites (membership scenario; must cover every primary site)")
		join    = fs.String("join", "", "comma-separated sites that join after the founding plan deploys, each followed by a re-optimised plan and incremental migration")
		leave   = fs.String("leave", "", "comma-separated sites to drain and remove after the joins, each preceded by a plan that migrates the site empty")
		planOut = fs.String("plan-out", "", "write the final deployed placement plan as canonical JSON to this file")
	)
	if err := cli.Parse(fs, args, tel.Check, dur.Check); err != nil {
		return err
	}

	// Reject flag combinations that would otherwise be silently ignored.
	reshaping := *members != "" || *join != "" || *leave != ""
	switch {
	case *retries < 1:
		return fmt.Errorf("-retry %d: a request needs at least one transport attempt", *retries)
	case *reqTimeout < 0:
		return fmt.Errorf("-req-timeout %v cannot be negative", *reqTimeout)
	case *pop < 0:
		return fmt.Errorf("-pop %d cannot be negative", *pop)
	case *gens < 0:
		return fmt.Errorf("-gens %d cannot be negative", *gens)
	case reshaping && *faultPlan != "":
		return fmt.Errorf("-fault-plan cannot combine with the membership scenario (-members/-join/-leave); run a chaos pass and a reshape pass separately")
	case reshaping && *algo != "sra":
		return fmt.Errorf("-algo %q conflicts with the membership scenario: its control plane picks placements itself (SRA founding solve, AGRA adaptation); drop -algo", *algo)
	}

	p, err := prob.Load()
	if err != nil {
		return err
	}

	// The registry exists before the cluster so durable stores can record
	// drp_store_* counters from their very first replayed record.
	if err := tel.Open(stdout, netnode.RegisterMetricFamilies, store.RegisterMetricFamilies); err != nil {
		return err
	}
	defer cli.CloseInto(&err, tel.Close)
	reg := tel.Reg
	dur.Store.Metrics = reg

	// boot is the one way a run gets its cluster: start it over the member
	// set (durable when -data-dir is set), apply the transport knobs and
	// attach tracing and the registry.
	boot := func(members []int) (c *netnode.Cluster, err error) {
		if dur.Dir != "" {
			c, err = netnode.StartDurableView(p, dur.Dir, dur.Store, members)
		} else {
			c, err = netnode.StartView(p, members)
		}
		if err != nil {
			return nil, err
		}
		c.SetRetry(*retries)
		c.SetRequestTimeout(*reqTimeout)
		c.EnableTracing(tel.Tracer)
		c.EnableMetrics(reg)
		return c, nil
	}
	allSites := make([]int, p.Sites())
	for i := range allSites {
		allSites[i] = i
	}

	if reshaping {
		founding, err := parseSiteList(*members, p.Sites())
		if err != nil {
			return fmt.Errorf("-members: %w", err)
		}
		if founding == nil {
			founding = allSites
		}
		sort.Ints(founding)
		joins, err := parseSiteList(*join, p.Sites())
		if err != nil {
			return fmt.Errorf("-join: %w", err)
		}
		leaves, err := parseSiteList(*leave, p.Sites())
		if err != nil {
			return fmt.Errorf("-leave: %w", err)
		}
		inFounding := make(map[int]bool, len(founding))
		for _, m := range founding {
			inFounding[m] = true
		}
		for _, s := range joins {
			if inFounding[s] {
				return fmt.Errorf("-join: site %d is already a founding member", s)
			}
		}
		return runMembership(p, founding, joins, leaves, dur.Dir, boot, *planOut, tel.Tracer, stdout)
	}

	params := drp.DefaultGRAParams()
	params.Seed, params.PopSize, params.Generations = prob.Seed, *pop, *gens
	scheme, err := cli.ResolvePlacement(p, *algo, params)
	if err != nil {
		return err
	}

	cluster, err := boot(allSites)
	if err != nil {
		return err
	}
	defer cluster.Close()

	fmt.Fprintf(stdout, "booted %d TCP sites on loopback (e.g. site 0 at %s)\n",
		p.Sites(), cluster.Node(0).Addr())
	if dur.Dir != "" {
		recovered := 0
		for i := 0; i < cluster.Sites(); i++ {
			if cluster.Node(i).Store().Recovered() {
				recovered++
			}
		}
		if recovered > 0 {
			replicas := -p.Objects() // primary copies are not replicas
			for _, sites := range cluster.Plan().Placement {
				replicas += len(sites)
			}
			fmt.Fprintf(stdout, "recovered %d of %d sites from %s: %d replicas already deployed\n",
				recovered, cluster.Sites(), dur.Dir, replicas)
		} else {
			fmt.Fprintf(stdout, "persisting to %s (fsync %s)\n", dur.Dir, dur.Fsync)
		}
	}

	migration, err := cluster.Deploy(scheme)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "deployed %s scheme: %d replicas, migration cost %d\n",
		*algo, scheme.TotalReplicas(), migration)

	if *faultPlan != "" {
		if err := runFaulted(cluster, p, scheme, *faultPlan, reg, stdout); err != nil {
			return err
		}
	} else {
		total, err := cluster.DriveTraffic()
		if err != nil {
			return err
		}
		model := scheme.Cost()
		fmt.Fprintf(stdout, "served one measurement period over TCP:\n")
		fmt.Fprintf(stdout, "  accounted transfer cost: %d\n", total)
		fmt.Fprintf(stdout, "  eq.4 model prediction:   %d\n", model)
		fmt.Fprintf(stdout, "  savings vs primaries:    %.2f%%\n", p.Savings(total))
		if total == model {
			fmt.Fprintln(stdout, "  model and wire agree exactly ✓")
		} else {
			fmt.Fprintln(stdout, "  WARNING: model and wire disagree")
		}
		printLatency(reg, stdout)
	}
	return writePlanFile(cluster, *planOut, stdout)
}

// printLatency reports the client-observed wire latency quantiles when the
// run is instrumented; without a registry it prints nothing.
func printLatency(reg *metrics.Registry, stdout io.Writer) {
	if reg == nil {
		return
	}
	read := reg.Histogram("drp_net_request_seconds", "", nil, metrics.Labels{"op": "read"})
	write := reg.Histogram("drp_net_request_seconds", "", nil, metrics.Labels{"op": "write"})
	if read.Count()+write.Count() == 0 {
		return
	}
	fmt.Fprintf(stdout, "  request latency (ms):    read p50 %.3f p99 %.3f, write p50 %.3f p99 %.3f\n",
		read.Quantile(0.50)*1e3, read.Quantile(0.99)*1e3,
		write.Quantile(0.50)*1e3, write.Quantile(0.99)*1e3)
}

// runFaulted serves the measurement period under an injected fault plan,
// then recovers once the logical clock has passed the last fault window:
// queued writes flush and the replicas behind their primary re-sync.
func runFaulted(cluster *netnode.Cluster, p *drp.Problem, scheme *drp.Scheme, planPath string, reg *metrics.Registry, stdout io.Writer) error {
	fp, err := fault.LoadPlan(planPath, p.Sites())
	if err != nil {
		return err
	}
	in := fault.NewInjector(fp)
	fault.Attach(cluster, in)
	fmt.Fprintf(stdout, "injecting %d fault events (seed %d)\n", len(fp.Events), fp.Seed)

	rep, err := cluster.DriveTrafficReport()
	if err != nil {
		return err
	}
	dials, refused, severed, dropped, delayed := in.Stats()
	fmt.Fprintf(stdout, "served one measurement period over TCP under faults:\n")
	fmt.Fprintf(stdout, "  accounted transfer cost: %d (eq.4 fault-free prediction: %d)\n", rep.NTC, scheme.Cost())
	fmt.Fprintf(stdout, "  reads served/failed:     %d/%d\n", rep.Reads, rep.FailedReads)
	fmt.Fprintf(stdout, "  writes served/queued:    %d/%d\n", rep.Writes, rep.QueuedWrites)
	fmt.Fprintf(stdout, "  dials: %d (refused %d, severed %d, dropped %d, delayed %d)\n",
		dials, refused, severed, dropped, delayed)
	printLatency(reg, stdout)

	// Recovery: move the clock past the last scheduled fault, replay the
	// queued writes and re-sync the replicas still behind their primary.
	in.AdvanceTo(fp.MaxStep())
	flushNTC, err := cluster.FlushPending()
	if err != nil {
		return err
	}
	recNTC, remaining, err := cluster.Reconcile()
	if err != nil {
		return fmt.Errorf("reconcile (are open-ended faults still active?): %w", err)
	}
	fmt.Fprintf(stdout, "recovery after the last fault window:\n")
	fmt.Fprintf(stdout, "  flushed queued writes:   cost %d (%d still queued)\n", flushNTC, cluster.PendingWrites())
	fmt.Fprintf(stdout, "  reconciled replicas:     cost %d (%d still stale)\n", recNTC, remaining)
	if cluster.PendingWrites() == 0 && remaining == 0 {
		fmt.Fprintln(stdout, "  cluster fully reconverged ✓")
	} else {
		fmt.Fprintln(stdout, "  WARNING: cluster did not fully reconverge")
	}
	return nil
}

// runMembership drives the control/data-plane split end to end: boot the
// founding view, deploy the control plane's founding plan, then migrate
// through each join and leave while reads keep serving. With a data
// directory the coordinator journal makes the whole sequence resumable:
// a rerun finds the last recorded plan, boots its member set and resumes
// any unfinished migration instead of replaying the scenario.
func runMembership(p *drp.Problem, founding, joins, leaves []int, dataDir string,
	boot func(members []int) (*netnode.Cluster, error), planOut string, tracer *spans.Tracer, stdout io.Writer) error {

	var journal *store.Journal
	resuming := false
	if dataDir != "" {
		var err error
		journal, err = store.OpenJournal(filepath.Join(dataDir, "coordinator"))
		if err != nil {
			return err
		}
		if _, data, ok := journal.LatestPlan(); ok {
			// The journal outranks the scenario flags: the recorded plan
			// names the member set the cluster was last migrating toward.
			target, err := plan.Unmarshal(data)
			if err != nil {
				return fmt.Errorf("journaled plan in %s: %w", dataDir, err)
			}
			fmt.Fprintf(stdout, "journal holds plan epoch %d over members %v; resuming it (the -members/-join/-leave scenario already ran)\n",
				target.Epoch, target.View.Members)
			founding, resuming = target.View.Members, true
		}
	}

	c, err := boot(founding)
	if err != nil {
		return err
	}
	defer c.Close()
	if journal != nil {
		c.AttachJournal(journal)
	}
	if resuming {
		rep, resumed, err := c.ResumeMigration()
		if err != nil {
			return fmt.Errorf("resume journaled migration: %w", err)
		}
		if resumed {
			fmt.Fprintf(stdout, "resumed migration to plan epoch %d: %d remaining steps, migration cost %d\n",
				c.Plan().Epoch, rep.Completed, rep.MigrationNTC)
		}
		return serveViewTraffic(p, c, planOut, stdout)
	}
	fmt.Fprintf(stdout, "booted %d-member view %v over a %d-site universe (e.g. site %d at %s)\n",
		len(founding), founding, p.Sites(), founding[0], c.Node(founding[0]).Addr())

	cp, err := ctrl.NewControlPlane(p, founding, tracer)
	if err != nil {
		return err
	}
	apply := func(stage string, pl *plan.Plan) error {
		rep, err := c.ApplyPlan(pl)
		if err != nil {
			return fmt.Errorf("%s: %w", stage, err)
		}
		fmt.Fprintf(stdout, "%s: plan epoch %d over view %v, %d migration steps, cost %d\n",
			stage, pl.Epoch, pl.View.Members, rep.Completed, rep.MigrationNTC)
		return nil
	}
	// react hands the next view to the control plane and migrates the
	// data plane to the plan it returns.
	react := func(stage string, view plan.View) error {
		pl, err := cp.React(view)
		if err != nil {
			return fmt.Errorf("control plane: %w", err)
		}
		return apply(stage, pl)
	}
	first := cp.Plan()
	view := first.View
	if err := apply("founding plan", first); err != nil {
		return err
	}
	for _, s := range joins {
		if view, err = view.Join(p.Sites(), s); err != nil {
			return err
		}
		if _, err := c.Join(s); err != nil {
			return err
		}
		if err := react(fmt.Sprintf("join site %d", s), view); err != nil {
			return err
		}
	}
	for _, s := range leaves {
		if view, err = view.Leave(s); err != nil {
			return err
		}
		if err := react(fmt.Sprintf("drain site %d", s), view); err != nil {
			return err
		}
		if err := c.Leave(s); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "site %d left: view is now %v\n", s, c.Members())
	}
	return serveViewTraffic(p, c, planOut, stdout)
}

// serveViewTraffic drives one measurement period over the deployed plan
// and checks the wire accounting against the plan's eq. 4 serve cost.
func serveViewTraffic(p *drp.Problem, c *netnode.Cluster, planOut string, stdout io.Writer) error {
	total, err := c.DriveTraffic()
	if err != nil {
		return err
	}
	model := plan.ServeCost(p, c.Plan())
	fmt.Fprintf(stdout, "served one measurement period over TCP:\n")
	fmt.Fprintf(stdout, "  accounted transfer cost: %d\n", total)
	fmt.Fprintf(stdout, "  eq.4 model prediction:   %d\n", model)
	if total == model {
		fmt.Fprintln(stdout, "  model and wire agree exactly ✓")
	} else {
		fmt.Fprintln(stdout, "  WARNING: model and wire disagree")
	}
	return writePlanFile(c, planOut, stdout)
}

// writePlanFile writes the adopted plan's canonical JSON encoding.
func writePlanFile(c *netnode.Cluster, path string, stdout io.Writer) error {
	if path == "" {
		return nil
	}
	pl := c.Plan()
	data, err := pl.Marshal()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote plan epoch %d (%d-member view) to %s\n",
		pl.Epoch, len(pl.View.Members), path)
	return nil
}

// parseSiteList parses a comma-separated list of site indices, rejecting
// duplicates and sites outside the universe. An empty list returns nil.
func parseSiteList(s string, sites int) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	seen := make(map[int]bool)
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad site %q", f)
		}
		if v < 0 || v >= sites {
			return nil, fmt.Errorf("site %d is outside the %d-site universe", v, sites)
		}
		if seen[v] {
			return nil, fmt.Errorf("site %d listed twice", v)
		}
		seen[v] = true
		out = append(out, v)
	}
	return out, nil
}
