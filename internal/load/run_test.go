package load

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"drp/internal/baseline"
	"drp/internal/core"
	"drp/internal/fault"
	"drp/internal/metrics"
	"drp/internal/netnode"
	"drp/internal/sra"
	"drp/internal/workload"
)

func gen(t testing.TB, m, n int, u, c float64, seed uint64) *core.Problem {
	t.Helper()
	p, err := workload.Generate(workload.NewSpec(m, n, u, c), seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func startCluster(t *testing.T, p *core.Problem) (*netnode.Cluster, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	netnode.RegisterMetricFamilies(reg)
	c, err := netnode.StartLocal(p)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	c.EnableMetrics(reg)
	return c, reg
}

// TestOpenLoopRunAgainstCluster is the end-to-end satellite: a seeded
// burst against a live 4-site cluster must achieve the offered rate
// within tolerance, finish with zero unexplained errors, and — the exact
// accounting claim — move the cluster's drp_net_* counters by precisely
// the runner's own per-op tallies.
func TestOpenLoopRunAgainstCluster(t *testing.T) {
	p := gen(t, 4, 24, 0.1, 0.5, 3)
	c, reg := startCluster(t, p)
	scheme := sra.Run(p, sra.Options{}).Scheme
	if _, err := c.Deploy(scheme); err != nil {
		t.Fatal(err)
	}

	pr := DefaultProfile()
	pr.Seed = 11
	pr.Rate = 400
	pr.DurationMS = 1500
	pr.WriteFraction = 0.15
	sched, err := BuildSchedule(p.Sites(), p.Objects(), pr)
	if err != nil {
		t.Fatal(err)
	}

	before := CaptureNetCounters(reg)
	res, err := Run(ClusterTarget{C: c}, sched, Options{})
	if err != nil {
		t.Fatal(err)
	}

	if res.requests() != int64(len(sched.Requests)) {
		t.Fatalf("completed %d of %d scheduled requests", res.requests(), len(sched.Requests))
	}
	if res.Unexplained != 0 {
		t.Fatalf("%d unexplained errors: %v", res.Unexplained, res.ErrSamples)
	}
	if res.ReadsFailed != 0 || res.WritesQueued != 0 {
		t.Fatalf("degraded outcomes without faults: failed=%d queued=%d", res.ReadsFailed, res.WritesQueued)
	}
	if res.ReadsOK != sched.Reads || res.WritesOK != sched.Writes {
		t.Fatalf("op counts drifted: reads %d/%d writes %d/%d", res.ReadsOK, sched.Reads, res.WritesOK, sched.Writes)
	}
	// Loopback at 400 req/s leaves the system far from saturation: the
	// achieved rate must sit within 15% of offered.
	if res.Achieved < 0.85*res.Offered {
		t.Fatalf("achieved %.1f req/s vs offered %.1f — open loop fell behind", res.Achieved, res.Offered)
	}

	mc := CrossCheck(res, reg, before)
	if !mc.Match {
		t.Fatalf("metrics cross-check mismatch: %s", mc.Describe())
	}
	// The cluster's own NTC ledger must agree with both accountings.
	if total := c.TotalNTC(); total != res.ntc() {
		t.Fatalf("cluster NTC ledger %d != run accounting %d", total, res.ntc())
	}
	if res.Digest != sched.Digest() {
		t.Fatal("result digest does not fingerprint the driven schedule")
	}
}

// stallTarget serves instantly except for one long stall; the stall
// blocks its worker, so with one worker every queued request behind it
// is late relative to its intended send time.
type stallTarget struct {
	stallAt int64 // request ordinal that stalls
	stall   time.Duration
	served  atomic.Int64
}

func (s *stallTarget) Read(site, obj int) (int64, error) {
	if s.served.Add(1) == s.stallAt {
		time.Sleep(s.stall)
	}
	return 1, nil
}

func (s *stallTarget) Write(site, obj int) (int64, error) { return s.Read(site, obj) }

// TestCoordinatedOmissionStallRaisesP99 is the coordinated-omission
// regression: a server that stalls once for 400ms in the middle of a 1s
// run must push the measured p99 up toward the stall length, because
// every request scheduled during the stall waited. A closed-loop
// harness (or one measuring from actual send time) would report
// near-zero latencies here — the bug this test pins out.
func TestCoordinatedOmissionStallRaisesP99(t *testing.T) {
	pr := DefaultProfile()
	pr.Seed = 5
	pr.Rate = 1000
	pr.DurationMS = 1000
	pr.WriteFraction = 0
	pr.Arrival = ArrivalUniform
	sched, err := BuildSchedule(2, 4, pr)
	if err != nil {
		t.Fatal(err)
	}
	stall := 400 * time.Millisecond
	target := &stallTarget{stallAt: int64(len(sched.Requests)) / 4, stall: stall}

	res, err := Run(target, sched, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// ~40% of the run sits behind the stall, so p99 of the recorded
	// latencies must reflect most of it. Demand at least half the stall —
	// generous against scheduler jitter, far above the sub-millisecond
	// latencies a coordinated-omission-blind harness would report.
	if p99 := res.ReadHist.Quantile(0.99); p99 < stall.Seconds()/2 {
		t.Fatalf("p99 = %.3fs after a %v stall — coordinated omission is back", p99, stall)
	}
	// ~40% of requests queued behind the stall with latencies spread
	// uniformly up to its length, so p90 lands well inside that tail.
	if p90 := res.ReadHist.Quantile(0.90); p90 < stall.Seconds()/4 {
		t.Fatalf("p90 = %.3fs after a %v stall — queue delay not measured", p90, stall)
	}
}

// modelledLinkLatency sums, over the schedule, the delay the latency plan
// puts on every link a request crosses under the scheme: a read travels to
// the requester's nearest replica (nothing when it holds one), a write to
// the primary, which then updates every other replica. It is the
// placement's latency bill by the injector's model — no clock involved.
func modelledLinkLatency(p *core.Problem, scheme *core.Scheme, plan fault.Plan, sched *Schedule) time.Duration {
	nearest := core.NewNearestTable(scheme)
	var total time.Duration
	for _, rq := range sched.Requests {
		if !rq.Write {
			total += plan.LatencyAt(rq.Site, nearest.Nearest(rq.Site, rq.Obj), 0)
			continue
		}
		sp := p.Primary(rq.Obj)
		total += plan.LatencyAt(rq.Site, sp, 0)
		for _, j := range scheme.Replicators(rq.Obj) {
			total += plan.LatencyAt(sp, j, 0)
		}
	}
	return total
}

// TestABCompareSRABeatsPrimariesOnly replays the identical schedule
// against primaries-only and SRA placements under WAN link latency: the
// acceptance claim is that SRA wins on total accounted NTC AND on the
// link latency the injector models for the replayed requests, with both
// runs provably driving the same request stream. Both sides of each
// comparison are exact — two measured p99s over ~300 requests are not,
// and ordering them failed a few percent of runs on a loaded machine.
func TestABCompareSRABeatsPrimariesOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("drives two clusters with injected WAN latency")
	}
	p := gen(t, 6, 24, 0.02, 1.0, 7)
	pr := DefaultProfile()
	pr.Seed = 9
	pr.Rate = 250
	pr.DurationMS = 1200
	pr.WriteFraction = 0.05
	// High skew concentrates the reads on hot objects, which SRA
	// replicates everywhere at this capacity — so most reads turn local.
	pr.Skew = 2.0
	pr.Geo = geoWAN3
	sched, err := BuildSchedule(p.Sites(), p.Objects(), pr)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := pr.LatencyPlan(p.Sites())
	if err != nil {
		t.Fatal(err)
	}

	runScheme := func(scheme *core.Scheme) *Report {
		t.Helper()
		c, reg := startCluster(t, p)
		if _, err := c.Deploy(scheme); err != nil {
			t.Fatal(err)
		}
		fault.Attach(c, fault.NewInjector(plan))
		before := CaptureNetCounters(reg)
		res, err := Run(ClusterTarget{C: c}, sched, Options{})
		if err != nil {
			t.Fatal(err)
		}
		mc := CrossCheck(res, reg, before)
		if !mc.Match {
			t.Fatalf("cross-check mismatch: %s", mc.Describe())
		}
		return BuildReport("x", pr, sched, res, nil, &mc)
	}

	none, placed := baseline.NoReplication(p), sra.Run(p, sra.Options{}).Scheme
	repNone := runScheme(none)
	repSRA := runScheme(placed)
	cmp := NewCompare(repNone, repSRA)

	if !cmp.SameSchedule {
		t.Fatalf("A/B did not replay the same schedule: %s vs %s",
			repNone.ScheduleDigest, repSRA.ScheduleDigest)
	}
	// With capacity for full replication and a 2% update ratio, SRA
	// replicates the read-hot objects everywhere: remote WAN reads become
	// local, which outweighs the wider update broadcast.
	latNone := modelledLinkLatency(p, none, plan, sched)
	latSRA := modelledLinkLatency(p, placed, plan, sched)
	if latSRA >= latNone {
		t.Fatalf("SRA's modelled link latency %v not below primaries-only %v", latSRA, latNone)
	}
	if cmp.Delta.NTC >= 0 {
		t.Fatalf("SRA NTC %d not cheaper than primaries-only %d",
			repSRA.NTC.Total, repNone.NTC.Total)
	}
}

// TestRunRejectsDegenerateInputs covers the runner's error paths.
func TestRunRejectsDegenerateInputs(t *testing.T) {
	if _, err := Run(nil, &Schedule{Requests: make([]Request, 1)}, Options{}); err == nil {
		t.Fatal("nil target accepted")
	}
	if _, err := Run(&stallTarget{}, &Schedule{}, Options{}); err == nil {
		t.Fatal("empty schedule accepted")
	}
}

// errTarget always fails with a protocol-unknown error.
type errTarget struct{}

func (errTarget) Read(site, obj int) (int64, error)  { return 0, errors.New("boom") }
func (errTarget) Write(site, obj int) (int64, error) { return 0, errors.New("boom") }

// TestRunClassifiesUnexplainedErrors checks unknown failures are counted
// and sampled rather than silently folded into degraded outcomes.
func TestRunClassifiesUnexplainedErrors(t *testing.T) {
	pr := DefaultProfile()
	pr.Rate = 2000
	pr.DurationMS = 100
	sched, err := BuildSchedule(2, 4, pr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(errTarget{}, sched, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Unexplained != int64(len(sched.Requests)) {
		t.Fatalf("unexplained = %d, want %d", res.Unexplained, len(sched.Requests))
	}
	if len(res.ErrSamples) == 0 || len(res.ErrSamples) > errSample {
		t.Fatalf("error samples = %d, want 1..%d", len(res.ErrSamples), errSample)
	}
	if res.ReadsOK != 0 || res.WritesOK != 0 {
		t.Fatal("failed requests counted as served")
	}
}
