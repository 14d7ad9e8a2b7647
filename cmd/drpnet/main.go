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
// With -data-dir every site's state (replica holdings, versions, stale
// marks, queued writes, accounted NTC) lives in a per-site write-ahead
// log under the directory; a rerun on the same directory replays the logs
// and continues from the recovered state instead of re-seeding.
//
// With -fault-plan the measurement period is served under injected faults
// (site crashes, link blackholes, latency spikes, message drops — see
// internal/fault): degraded requests are reported instead of aborting the
// run, and afterwards queued writes are flushed and stale replicas
// reconciled.
//
// With -members/-join/-leave the run becomes a membership scenario: the
// cluster boots on the founding view, a control plane (SRA founding
// solve, AGRA adaptation per view change) emits a versioned placement
// plan for every join and leave, and the data plane migrates
// incrementally — replicas copy in before anything routes to them, and a
// departing site keeps serving until the plan drains it. Combined with
// -data-dir the coordinator journals each plan before migrating; a rerun
// on the same directory boots the reshaped member set recorded in the
// journal and resumes any unfinished migration instead of replaying the
// scenario. -plan-out writes the final deployed plan as canonical JSON.
//
// Observability: -listen-metrics serves the nodes' shared drp_net_* request
// instruments (latency histograms, replica-hit and NTC counters) as
// Prometheus text at /metrics, plus /debug/vars and /debug/pprof;
// -serve-for keeps the endpoint up after the traffic finishes.
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
	"time"

	"drp"
	ctrl "drp/internal/cluster"
	"drp/internal/fault"
	"drp/internal/load"
	"drp/internal/membership"
	"drp/internal/metrics"
	"drp/internal/netnode"
	"drp/internal/netsim"
	"drp/internal/plan"
	"drp/internal/spans"
	"drp/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "drpnet:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("drpnet", flag.ContinueOnError)
	var (
		sites    = fs.Int("sites", 10, "number of sites (ignored with -in)")
		objects  = fs.Int("objects", 20, "number of objects (ignored with -in)")
		update   = fs.Float64("update", 0.05, "update ratio U")
		capacity = fs.Float64("capacity", 0.15, "capacity ratio C")
		seed     = fs.Uint64("seed", 1, "workload / algorithm seed")
		in       = fs.String("in", "", "problem JSON (default: generate)")
		algo     = fs.String("algo", "sra", "placement algorithm: none | sra | gra")
		pop      = fs.Int("pop", 16, "GRA population size")
		gens     = fs.Int("gens", 15, "GRA generations")

		sloExpr = fs.String("slo", "", `gate the run on client-observed wire latency, e.g. "p99<5ms" (latency terms of the drpload SLO grammar; exits non-zero when unmet)`)

		listenMetrics = fs.String("listen-metrics", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. 127.0.0.1:0)")
		serveFor      = fs.Duration("serve-for", 0, "keep the metrics endpoint up this long after the run (0 = exit immediately)")
		blockRate     = fs.Int("block-profile-rate", 0, "sample goroutine blocking events at this rate (ns) for /debug/pprof/block (0 = off; requires -listen-metrics)")
		mutexFrac     = fs.Int("mutex-profile-fraction", 0, "sample 1/N mutex contention events for /debug/pprof/mutex (0 = off; requires -listen-metrics)")

		traceOut    = fs.String("trace-out", "", "record one JSON span per line to this file: a trace per client request, deploy and migration (analyse with drptrace)")
		traceSample = fs.Int64("trace-sample", 1, "trace every nth request (deterministic counter, not probability; requires -trace-out)")
		traceClock  = fs.String("trace-clock", "logical", `span timestamp source: "logical" (deterministic ticks) or "wall" (real durations; requires -trace-out)`)

		faultPlan  = fs.String("fault-plan", "", "inject faults from this plan JSON (see internal/fault); degraded requests are reported, then queued writes flush and stale replicas reconcile")
		retries    = fs.Int("retry", 1, "transport attempts per request (1 = no retrying)")
		reqTimeout = fs.Duration("req-timeout", 0, "per-request deadline for dial plus round trip (0 = none)")

		dataDir   = fs.String("data-dir", "", "persist each site's state to a write-ahead log under this directory; a rerun on the same directory recovers the deployed scheme, versions and queued writes from disk")
		snapEvery = fs.Int("snapshot-every", 0, "snapshot each site's state and truncate its log every N appended records (0 = never; requires -data-dir)")
		fsync     = fs.String("fsync", "always", `WAL fsync policy: "always", "never" or "every:N" (requires -data-dir)`)

		members = fs.String("members", "", "comma-separated founding member sites (membership scenario; must cover every primary site)")
		join    = fs.String("join", "", "comma-separated sites that join after the founding plan deploys, each followed by a re-optimised plan and incremental migration")
		leave   = fs.String("leave", "", "comma-separated sites to drain and remove after the joins, each preceded by a plan that migrates the site empty")
		planOut = fs.String("plan-out", "", "write the final deployed placement plan as canonical JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Reject flag combinations that would otherwise be silently ignored.
	reshaping := *members != "" || *join != "" || *leave != ""
	slo, err := load.ParseSLO(*sloExpr)
	if err != nil {
		return err
	}
	if slo.HasNonLatency() {
		return fmt.Errorf("-slo on drpnet supports latency terms only; err/tput gates need drpload's open-loop accounting")
	}
	if slo != nil && reshaping {
		return fmt.Errorf("-slo cannot combine with the membership scenario; gate a separate drpload run instead")
	}
	if *serveFor > 0 && *listenMetrics == "" {
		return fmt.Errorf("-serve-for keeps the metrics endpoint alive and needs -listen-metrics")
	}
	if *listenMetrics == "" && (*blockRate > 0 || *mutexFrac > 0) {
		return fmt.Errorf("-block-profile-rate/-mutex-profile-fraction feed /debug/pprof and need -listen-metrics")
	}
	if *blockRate < 0 || *mutexFrac < 0 {
		return fmt.Errorf("profile sampling rates cannot be negative")
	}
	if *traceOut == "" {
		if *traceSample != 1 {
			return fmt.Errorf("-trace-sample selects traced requests and needs -trace-out")
		}
		if *traceClock != "logical" {
			return fmt.Errorf("-trace-clock sets the span clock and needs -trace-out")
		}
	}
	if *dataDir == "" {
		if *snapEvery > 0 {
			return fmt.Errorf("-snapshot-every needs -data-dir")
		}
		if *fsync != "always" {
			return fmt.Errorf("-fsync sets the WAL sync policy and needs -data-dir")
		}
	}
	if reshaping {
		if *faultPlan != "" {
			return fmt.Errorf("-fault-plan cannot combine with the membership scenario (-members/-join/-leave); run a chaos pass and a reshape pass separately")
		}
		if *algo != "sra" {
			return fmt.Errorf("-algo %q conflicts with the membership scenario: its control plane picks placements itself (SRA founding solve, AGRA adaptation); drop -algo", *algo)
		}
	}

	if *listenMetrics != "" {
		metrics.EnableRuntimeProfiles(*blockRate, *mutexFrac)
	}

	// The trace file flushes span by span; the deferred close reports the
	// first write error so a full disk cannot truncate a run silently.
	var tracer *spans.Tracer
	if *traceOut != "" {
		var closeTrace func() error
		tracer, closeTrace, err = spans.OpenFile(*traceOut, *traceSample, *traceClock)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := closeTrace(); cerr != nil && err == nil {
				err = fmt.Errorf("trace file %s: %w", *traceOut, cerr)
			}
		}()
		fmt.Fprintf(stdout, "tracing requests to %s (sample 1/%d, %s clock)\n", *traceOut, *traceSample, *traceClock)
	}

	var p *drp.Problem
	if *in != "" {
		f, err2 := os.Open(*in)
		if err2 != nil {
			return err2
		}
		defer f.Close()
		p, err = drp.ReadProblem(f)
	} else {
		p, err = drp.Generate(drp.NewSpec(*sites, *objects, *update, *capacity), *seed)
	}
	if err != nil {
		return err
	}

	var storeOpts store.Options
	if *dataDir != "" {
		policy, every, err := store.ParseSyncPolicy(*fsync)
		if err != nil {
			return err
		}
		storeOpts = store.Options{Sync: policy, SyncEvery: every, SnapshotEvery: *snapEvery}
	}

	// The metrics registry is created before the cluster so durable stores
	// can record drp_store_* counters from their very first replayed record.
	// An SLO gate needs the latency instruments even without an endpoint.
	var reg *metrics.Registry
	if *listenMetrics != "" || slo != nil {
		reg = metrics.NewRegistry()
		netnode.RegisterMetricFamilies(reg)
		store.RegisterMetricFamilies(reg)
		storeOpts.Metrics = reg
	}

	// boot is the one way a run gets its cluster: start it over the member
	// set (durable when -data-dir is set), apply the transport knobs, attach
	// tracing and the registry, and bring the metrics endpoint up. stop
	// honours -serve-for, then shuts the endpoint and the cluster down.
	boot := func(members []int) (c *netnode.Cluster, stop func(), err error) {
		if *dataDir != "" {
			c, err = netnode.StartDurableView(p, *dataDir, storeOpts, members)
		} else {
			c, err = netnode.StartView(p, members)
		}
		if err != nil {
			return nil, nil, err
		}
		if *retries > 1 {
			rp := netnode.DefaultRetry()
			rp.Attempts = *retries
			c.SetRetry(rp)
		}
		if *reqTimeout > 0 {
			c.SetRequestTimeout(*reqTimeout)
		}
		c.EnableTracing(tracer)
		c.EnableMetrics(reg)
		if *listenMetrics == "" {
			return c, c.Close, nil
		}
		srv, err := metrics.Serve(*listenMetrics, reg)
		if err != nil {
			c.Close()
			return nil, nil, err
		}
		fmt.Fprintf(stdout, "metrics: http://%s/metrics\n", srv.Addr())
		return c, func() {
			time.Sleep(*serveFor)
			srv.Close()
			c.Close()
		}, nil
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
		return runMembership(p, founding, joins, leaves, *dataDir, storeOpts, boot, *planOut, tracer, stdout)
	}

	var scheme *drp.Scheme
	switch *algo {
	case "none":
		scheme = drp.NoReplication(p)
	case "sra":
		scheme = drp.SRA(p).Scheme
	case "gra":
		params := drp.DefaultGRAParams()
		params.PopSize = *pop
		params.Generations = *gens
		params.Seed = *seed
		res, err := drp.GRA(p, params)
		if err != nil {
			return err
		}
		scheme = res.Scheme
	default:
		return fmt.Errorf("unknown algorithm %q", *algo)
	}

	cluster, stop, err := boot(allSites)
	if err != nil {
		return err
	}
	defer stop()

	fmt.Fprintf(stdout, "booted %d TCP sites on loopback (e.g. site 0 at %s)\n",
		p.Sites(), cluster.Node(0).Addr())
	if *dataDir != "" {
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
				recovered, cluster.Sites(), *dataDir, replicas)
		} else {
			fmt.Fprintf(stdout, "persisting to %s (fsync %s)\n", *dataDir, *fsync)
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
		if err := gateSLO(slo, reg, stdout); err != nil {
			return err
		}
		return writePlanFile(cluster, *planOut, stdout)
	}

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
	if err := gateSLO(slo, reg, stdout); err != nil {
		return err
	}
	return writePlanFile(cluster, *planOut, stdout)
}

// gateSLO evaluates a latency SLO against the drp_net_request_seconds
// histograms and fails the run when it is unmet.
func gateSLO(slo *load.SLO, reg *metrics.Registry, stdout io.Writer) error {
	if slo == nil {
		return nil
	}
	out := slo.EvalQuantiles(func(op string, p float64) int64 {
		h := reg.Histogram("drp_net_request_seconds", "", nil, metrics.Labels{"op": op})
		return int64(h.Quantile(p) * 1e9)
	})
	verdict := "PASS"
	if !out.Pass {
		verdict = "FAIL"
	}
	fmt.Fprintf(stdout, "  slo %q: %s\n", out.Expr, verdict)
	for _, t := range out.Terms {
		mark := "ok"
		if !t.Pass {
			mark = "VIOLATED"
		}
		fmt.Fprintf(stdout, "    %-16s actual=%.3fms bound=%.3fms %s\n", t.Term, t.Actual, t.Bound, mark)
	}
	if !out.Pass {
		return fmt.Errorf("SLO %q not met", out.Expr)
	}
	return nil
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
// then recovers: queued writes flush and stale replicas reconcile once the
// logical clock has passed the last fault window.
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
	// queued writes and re-sync the replicas that missed a broadcast.
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
func runMembership(p *drp.Problem, founding, joins, leaves []int, dataDir string, storeOpts store.Options,
	boot func(members []int) (*netnode.Cluster, func(), error), planOut string, tracer *spans.Tracer, stdout io.Writer) error {
	pcost := func(i, j int) int64 { return p.Cost(i, j) }

	var journal *store.Journal
	resuming := false
	if dataDir != "" {
		var err error
		journal, err = store.OpenJournal(filepath.Join(dataDir, "coordinator"), storeOpts)
		if err != nil {
			return err
		}
		defer journal.Close()
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

	c, stop, err := boot(founding)
	if err != nil {
		return err
	}
	defer stop()
	if journal != nil {
		c.AttachJournal(journal)
	}
	if resuming {
		rep, resumed, err := c.ResumeMigration(pcost)
		if err != nil {
			return fmt.Errorf("resume journaled migration: %w", err)
		}
		if resumed {
			fmt.Fprintf(stdout, "resumed migration to plan epoch %d: %d remaining steps, migration cost %d\n",
				c.Plan().Epoch, rep.Completed, rep.MigrationNTC)
		}
		return serveViewTraffic(p, c, pcost, planOut, stdout)
	}
	fmt.Fprintf(stdout, "booted %d-member view %v over a %d-site universe (e.g. site %d at %s)\n",
		len(founding), founding, p.Sites(), founding[0], c.Node(founding[0]).Addr())

	tr, err := membership.NewTracker(netsim.Complete(p.Dist()), founding)
	if err != nil {
		return err
	}
	cp, err := ctrl.NewControlPlane(p, tr, ctrl.ControlOptions{Tracer: tracer})
	if err != nil {
		return err
	}
	cp.Bind()

	apply := func(stage string) error {
		if err := cp.Err(); err != nil {
			return fmt.Errorf("control plane: %w", err)
		}
		pl := cp.Plan()
		rep, err := c.ApplyPlan(pl, pcost)
		if err != nil {
			return fmt.Errorf("%s: %w", stage, err)
		}
		fmt.Fprintf(stdout, "%s: plan epoch %d over view %v, %d migration steps, cost %d\n",
			stage, pl.Epoch, pl.View.Members, rep.Completed, rep.MigrationNTC)
		return nil
	}
	if err := apply("founding plan"); err != nil {
		return err
	}
	for _, s := range joins {
		if _, err := c.Join(s, pcost); err != nil {
			return err
		}
		if _, err := tr.JoinSite(s); err != nil {
			return err
		}
		if err := apply(fmt.Sprintf("join site %d", s)); err != nil {
			return err
		}
	}
	for _, s := range leaves {
		if _, err := tr.LeaveSite(s); err != nil {
			return err
		}
		if err := apply(fmt.Sprintf("drain site %d", s)); err != nil {
			return err
		}
		if err := c.Leave(s); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "site %d left: view is now %v\n", s, c.Members())
	}
	return serveViewTraffic(p, c, pcost, planOut, stdout)
}

// serveViewTraffic drives one measurement period over the deployed plan
// and checks the wire accounting against the plan's eq. 4 serve cost.
func serveViewTraffic(p *drp.Problem, c *netnode.Cluster, pcost plan.CostFn, planOut string, stdout io.Writer) error {
	total, err := c.DriveTraffic()
	if err != nil {
		return err
	}
	model := plan.ServeCost(p, c.Plan(), pcost)
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

// writePlanFile writes the deployed plan's canonical JSON encoding.
func writePlanFile(c *netnode.Cluster, path string, stdout io.Writer) error {
	if path == "" {
		return nil
	}
	pl := c.Plan()
	if pl == nil {
		return fmt.Errorf("-plan-out: no plan deployed")
	}
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
