package fault

// The deterministic chaos suite: seeded fault plans whose surviving-replica
// transfer cost is computable a priori, so the assertions are exact — the
// NTC accounted by the TCP cluster under failures must equal the model's
// prediction to the unit, queued writes must flush for exactly the modelled
// cost, reconciliation must re-ship exactly the modelled copies, and every
// replica must reconverge to the primary's version after restart.
//
// On failure the offending plan is written to testdata/repro/<test>.json so
// CI can upload a reproducer.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"drp/internal/core"
	"drp/internal/netnode"
	"drp/internal/sra"
	"drp/internal/workload"
)

func genProblem(t testing.TB, m, n int, u, c float64, seed uint64) *core.Problem {
	t.Helper()
	p, err := workload.Generate(workload.NewSpec(m, n, u, c), seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// chaosCluster boots a TCP cluster, deploys the SRA scheme, attaches the
// injector and configures fast retries suited to a test run.
func chaosCluster(t *testing.T, p *core.Problem, scheme *core.Scheme, plan Plan) (*netnode.Cluster, *Injector) {
	t.Helper()
	if err := plan.validate(p.Sites()); err != nil {
		t.Fatal(err)
	}
	c, err := netnode.StartLocal(p)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if _, err := c.Deploy(scheme); err != nil {
		t.Fatal(err)
	}
	in := NewInjector(plan)
	Attach(c, in)
	c.SetRetry(3)
	c.SetRequestTimeout(2 * time.Second)
	dumpOnFailure(t, plan)
	return c, in
}

// dumpOnFailure writes the plan to testdata/repro/<test>.json when the
// test fails, so the chaos-smoke CI job can upload a reproducer.
func dumpOnFailure(t *testing.T, plan Plan) {
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		dir := filepath.Join("testdata", "repro")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Logf("reproducer dir: %v", err)
			return
		}
		name := strings.NewReplacer("/", "_", " ", "_").Replace(t.Name()) + ".json"
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Logf("reproducer: %v", err)
			return
		}
		defer f.Close()
		if err := plan.Encode(f); err != nil {
			t.Logf("reproducer encode: %v", err)
		}
		t.Logf("fault plan reproducer written to %s", f.Name())
	})
}

// prediction is the a-priori outcome of one measurement period plus
// recovery (flush + reconcile) under a plan with only deterministic
// reachability faults (crash / restart / blackhole — no drops).
type prediction struct {
	ntc           int64
	reads, writes int64
	failedReads   int64
	queuedWrites  int64
	flushNTC      int64
	reconcileNTC  int64
	versions      []int64
}

// predict replays DriveTrafficReport's exact request order (sites outer,
// objects inner, reads then writes; the step clock ticks once per
// request) against the plan's pure reachability relation, then models the
// flush and reconcile passes with every site live again.
func predict(p *core.Problem, s *core.Scheme, plan Plan) *prediction {
	pr := &prediction{versions: make([]int64, p.Objects())}
	stale := make(map[int]map[int]bool)
	queued := make(map[int]map[int]int64) // site → object → count
	mark := func(k, j int) {
		if stale[k] == nil {
			stale[k] = make(map[int]bool)
		}
		stale[k][j] = true
	}
	clear := func(k, j int) {
		if stale[k] != nil {
			delete(stale[k], j)
		}
	}
	// One successful write by site i: ship (unless local primary), then
	// broadcast from the primary to every other replicator, leaving the
	// unreachable ones behind. A writer that replicates k adopts the new
	// version itself. live==true models the recovery passes.
	writeCost := func(i, k int, step int64, live bool) int64 {
		sp := p.Primary(k)
		pr.versions[k]++
		var cost int64
		if i != sp {
			cost += p.Size(k) * p.Cost(i, sp)
		}
		clear(k, i)
		for _, j := range s.Replicators(k) {
			if j == i || j == sp {
				continue
			}
			if live || plan.Reachable(sp, j, step) {
				cost += p.Size(k) * p.Cost(sp, j)
				clear(k, j)
			} else {
				mark(k, j)
			}
		}
		return cost
	}

	step := int64(0)
	for i := 0; i < p.Sites(); i++ {
		for k := 0; k < p.Objects(); k++ {
			for r := int64(0); r < p.Reads(i, k); r++ {
				step++
				if s.Has(i, k) {
					pr.reads++
					continue
				}
				best := int64(-1)
				for _, j := range s.Replicators(k) {
					if !plan.Reachable(i, j, step) {
						continue
					}
					if d := p.Cost(i, j); best < 0 || d < best {
						best = d
					}
				}
				if best < 0 {
					pr.failedReads++
					continue
				}
				pr.reads++
				pr.ntc += p.Size(k) * best
			}
			for w := int64(0); w < p.Writes(i, k); w++ {
				step++
				sp := p.Primary(k)
				if i != sp && !plan.Reachable(i, sp, step) {
					if queued[i] == nil {
						queued[i] = make(map[int]int64)
					}
					queued[i][k]++
					pr.queuedWrites++
					continue
				}
				pr.writes++
				pr.ntc += writeCost(i, k, step, false)
			}
		}
	}

	// Recovery happens after every fault window has closed: queued writes
	// flush in site order then object order, then every primary re-ships
	// the replicas still behind it.
	for i := 0; i < p.Sites(); i++ {
		for k := 0; k < p.Objects(); k++ {
			for n := int64(0); n < queued[i][k]; n++ {
				pr.flushNTC += writeCost(i, k, step, true)
			}
		}
	}
	for k := 0; k < p.Objects(); k++ {
		sp := p.Primary(k)
		for j := 0; j < p.Sites(); j++ {
			if stale[k][j] {
				pr.reconcileNTC += p.Size(k) * p.Cost(sp, j)
			}
		}
	}
	return pr
}

// totalRequests is the plan-step span of one measurement period.
func totalRequests(p *core.Problem) int64 {
	var total int64
	for i := 0; i < p.Sites(); i++ {
		for k := 0; k < p.Objects(); k++ {
			total += p.Reads(i, k) + p.Writes(i, k)
		}
	}
	return total
}

// runChaos drives one full chaos scenario — traffic under the plan, then
// flush and reconcile with the clock past every fault window — and
// asserts the exact a-priori costs and version reconvergence.
func runChaos(t *testing.T, p *core.Problem, scheme *core.Scheme, plan Plan) *netnode.TrafficReport {
	t.Helper()
	c, in := chaosCluster(t, p, scheme, plan)
	want := predict(p, scheme, plan)

	rep, err := c.DriveTrafficReport()
	if err != nil {
		t.Fatal(err)
	}
	if rep.NTC != want.ntc {
		t.Errorf("accounted NTC %d, a-priori surviving-replica cost %d", rep.NTC, want.ntc)
	}
	if rep.Reads != want.reads || rep.FailedReads != want.failedReads {
		t.Errorf("reads served/failed %d/%d, want %d/%d", rep.Reads, rep.FailedReads, want.reads, want.failedReads)
	}
	if rep.Writes != want.writes || rep.QueuedWrites != want.queuedWrites {
		t.Errorf("writes served/queued %d/%d, want %d/%d", rep.Writes, rep.QueuedWrites, want.writes, want.queuedWrites)
	}
	if got := int64(c.PendingWrites()); got != want.queuedWrites {
		t.Errorf("pending writes %d, want %d", got, want.queuedWrites)
	}

	// Every fault window has closed by construction once the clock passes
	// the plan's horizon; recovery then runs against a fully live cluster.
	in.AdvanceTo(plan.MaxStep())
	flushNTC, err := c.FlushPending()
	if err != nil {
		t.Fatal(err)
	}
	if flushNTC != want.flushNTC {
		t.Errorf("flush NTC %d, want %d", flushNTC, want.flushNTC)
	}
	if left := c.PendingWrites(); left != 0 {
		t.Errorf("%d writes still queued after flush", left)
	}
	recNTC, remaining, err := c.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if recNTC != want.reconcileNTC {
		t.Errorf("reconcile NTC %d, want %d", recNTC, want.reconcileNTC)
	}
	if remaining != 0 {
		t.Errorf("%d replicas still stale after reconcile", remaining)
	}

	// Version reconvergence: every replica matches its primary, and the
	// primary serialised exactly the modelled number of writes.
	for k := 0; k < p.Objects(); k++ {
		sp := p.Primary(k)
		if got := c.Node(sp).Version(k); got != want.versions[k] {
			t.Errorf("object %d: primary version %d, want %d", k, got, want.versions[k])
		}
		for _, j := range scheme.Replicators(k) {
			if got := c.Node(j).Version(k); got != want.versions[k] {
				t.Errorf("object %d: replica at site %d has version %d, primary has %d", k, j, got, want.versions[k])
			}
		}
	}
	return rep
}

// namedPlan is one seeded fault plan of a suite.
type namedPlan struct {
	name string
	plan Plan
}

// seededPlans is the headline suite's plans on p: a crashed non-primary
// replica site (reads fail over around it), a crashed primary site (writes
// to its objects queue), both overlapping, and two blackholed links.
func seededPlans(p *core.Problem) []namedPlan {
	total := totalRequests(p)
	// Pick a non-primary replica site (reads fail over around it) and a
	// primary site (writes to its objects queue) to crash.
	crashReplica, crashPrimary := -1, p.Primary(0)
	for j := 0; j < p.Sites(); j++ {
		primaried := false
		for k := 0; k < p.Objects(); k++ {
			if p.Primary(k) == j {
				primaried = true
				break
			}
		}
		if !primaried {
			crashReplica = j
			break
		}
	}
	if crashReplica < 0 {
		crashReplica = (crashPrimary + 1) % p.Sites()
	}
	half, third := total/2, total/3

	return []namedPlan{
		{"crash-replica-first-half", Plan{Seed: 1, Events: []Event{
			{Kind: KindCrash, Site: crashReplica, Step: 1, Until: half},
		}}},
		{"crash-primary-midwindow", Plan{Seed: 2, Events: []Event{
			{Kind: KindCrash, Site: crashPrimary, Step: third, Until: 2 * third},
		}}},
		{"double-crash-overlapping", Plan{Seed: 3, Events: []Event{
			{Kind: KindCrash, Site: crashReplica, Step: 1, Until: 2 * third},
			{Kind: KindCrash, Site: (crashReplica + 2) % p.Sites(), Step: third, Until: total},
		}}},
		{"blackhole-link", Plan{Seed: 4, Events: []Event{
			{Kind: KindBlackhole, Site: 0, Peer: crashPrimary, Step: 1, Until: half},
			{Kind: KindBlackhole, Site: 1, Peer: crashReplica, Step: third, Until: total},
		}}},
	}
}

// TestChaosExactNTCUnderSeededPlans is the headline: for several seeded
// fault plans the NTC accounted over real TCP equals the a-priori
// surviving-replica cost exactly, recovery costs match the model, and all
// versions reconverge.
func TestChaosExactNTCUnderSeededPlans(t *testing.T) {
	p := genProblem(t, 6, 8, 0.15, 0.9, 21)
	scheme := sra.Run(p, sra.Options{}).Scheme
	if total := totalRequests(p); total < 10 {
		t.Fatalf("degenerate workload: %d requests", total)
	}
	for _, tc := range seededPlans(p) {
		t.Run(tc.name, func(t *testing.T) {
			rep := runChaos(t, p, scheme, tc.plan)
			if rep.FailedReads == 0 && rep.QueuedWrites == 0 && rep.NTC == scheme.Cost() {
				t.Errorf("plan injected no observable fault (NTC %d == eq.4 D); the scenario is vacuous", rep.NTC)
			}
		})
	}
}

// TestChaosRestartEventReconverges exercises the explicit restart kind: a
// crash with no Until is ended by a KindRestart event, after which the
// restarted site reconverges to the coordinator's scheme with matching
// versions via reconciliation.
func TestChaosRestartEventReconverges(t *testing.T) {
	p := genProblem(t, 5, 6, 0.25, 1.0, 7)
	scheme := sra.Run(p, sra.Options{}).Scheme
	plan, ok := restartPlan(p, scheme)
	if !ok {
		t.Skip("SRA placed no secondary replicas; nothing to crash")
	}
	runChaos(t, p, scheme, plan)
}

// restartPlan crashes the first non-primary replica site with no Until and
// ends the crash with a KindRestart event halfway through the traffic;
// false when the scheme places no secondary replica.
func restartPlan(p *core.Problem, scheme *core.Scheme) (Plan, bool) {
	total := totalRequests(p)
	victim := -1
	for k := 0; k < p.Objects(); k++ {
		for _, j := range scheme.Replicators(k) {
			if j != p.Primary(k) {
				victim = j
				break
			}
		}
		if victim >= 0 {
			break
		}
	}
	if victim < 0 {
		return Plan{}, false
	}
	return Plan{Seed: 5, Events: []Event{
		{Kind: KindCrash, Site: victim, Step: 1}, // no Until: down until restarted
		{Kind: KindRestart, Site: victim, Step: total / 2},
	}}, true
}

// TestChaosHoldingsSurviveCrash asserts a crashed-then-restarted site's
// holdings still match the deployed scheme (the crash is a connectivity
// fault, not data loss, per the paper's fault model).
func TestChaosHoldingsSurviveCrash(t *testing.T) {
	p := genProblem(t, 5, 6, 0.25, 1.0, 7)
	scheme := sra.Run(p, sra.Options{}).Scheme
	total := totalRequests(p)
	victim := (p.Primary(0) + 1) % p.Sites()
	plan := Plan{Seed: 6, Events: []Event{
		{Kind: KindCrash, Site: victim, Step: 1, Until: total / 2},
	}}
	c, in := chaosCluster(t, p, scheme, plan)
	if _, err := c.DriveTrafficReport(); err != nil {
		t.Fatal(err)
	}
	in.AdvanceTo(plan.MaxStep())
	if _, err := c.FlushPending(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Reconcile(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < p.Objects(); k++ {
		if got, want := c.Node(victim).Holds(k), scheme.Has(victim, k); got != want {
			t.Errorf("restarted site %d holds(%d)=%v, scheme says %v", victim, k, got, want)
		}
	}
}

// dropPlan drops the coordinator's messages to site 1 and injects a
// latency spike and a crash over the first half of the traffic.
func dropPlan(p *core.Problem) Plan {
	total := totalRequests(p)
	return Plan{Seed: 99, Events: []Event{
		{Kind: KindDrop, Site: 1, Peer: coordinator, Step: 1, Until: total / 2, Prob: 0.4},
		{Kind: kindLatency, Site: 2, Step: total / 4, Until: total / 2, DelayMS: 1},
		{Kind: KindCrash, Site: 3, Step: total / 3, Until: total / 2},
	}}
}

// TestChaosBitIdenticalPerSeed runs a plan with probabilistic drops and
// latency spikes twice from the same seed and requires bit-identical
// accounting: identical reports, per-node NTC, versions and injector
// outcome counts.
func TestChaosBitIdenticalPerSeed(t *testing.T) {
	p := genProblem(t, 5, 6, 0.2, 0.8, 11)
	scheme := sra.Run(p, sra.Options{}).Scheme
	plan := dropPlan(p)

	type snapshot struct {
		rep      netnode.TrafficReport
		flush    int64
		rec      int64
		ntc      []int64
		versions []int64
		drops    int64
		refused  int64
		stats    [5]int64
	}
	capture := func() snapshot {
		c, in := chaosCluster(t, p, scheme, plan)
		rep, err := c.DriveTrafficReport()
		if err != nil {
			t.Fatal(err)
		}
		in.AdvanceTo(plan.MaxStep())
		flush, err := c.FlushPending()
		if err != nil {
			t.Fatal(err)
		}
		rec, remaining, err := c.Reconcile()
		if err != nil {
			t.Fatal(err)
		}
		if remaining != 0 {
			t.Fatalf("%d replicas still stale after reconcile", remaining)
		}
		var s snapshot
		s.rep = *rep
		s.flush, s.rec = flush, rec
		for i := 0; i < p.Sites(); i++ {
			s.ntc = append(s.ntc, c.Node(i).NTC())
		}
		for k := 0; k < p.Objects(); k++ {
			for i := 0; i < p.Sites(); i++ {
				s.versions = append(s.versions, c.Node(i).Version(k))
			}
		}
		dials, refused, severed, dropped, delayed := in.Stats()
		s.drops, s.refused = dropped, refused
		s.stats = [5]int64{dials, refused, severed, dropped, delayed}
		return s
	}

	a, b := capture(), capture()
	if a.rep != b.rep {
		t.Errorf("reports differ across identically seeded runs:\n  %+v\n  %+v", a.rep, b.rep)
	}
	if a.flush != b.flush || a.rec != b.rec {
		t.Errorf("recovery costs differ: flush %d vs %d, reconcile %d vs %d", a.flush, b.flush, a.rec, b.rec)
	}
	for i := range a.ntc {
		if a.ntc[i] != b.ntc[i] {
			t.Errorf("site %d NTC differs: %d vs %d", i, a.ntc[i], b.ntc[i])
		}
	}
	for i := range a.versions {
		if a.versions[i] != b.versions[i] {
			t.Fatalf("version vector differs at index %d: %d vs %d", i, a.versions[i], b.versions[i])
		}
	}
	if a.drops != b.drops || a.refused != b.refused {
		t.Errorf("injector outcomes differ: drops %d vs %d, refused %d vs %d", a.drops, b.drops, a.refused, b.refused)
	}
	if a.drops == 0 {
		t.Error("drop plan never dropped a message; the scenario is vacuous")
	}
	// The gate keeps the verdict order and the RNG draws of the dialer it
	// replaced: these are the counts and the report that the transport
	// which dialled once per attempt produced on this plan (recorded at the
	// last commit that had it), so the seeded drop sequence is the same.
	// Attempts were 576 while Reconcile sent one round trip per object;
	// it sends none for the 6 objects here, none of which has a holder
	// behind its primary.
	wantStats := [5]int64{570, 6, 0, 104, 56}
	wantRep := netnode.TrafficReport{NTC: 47024, Reads: 619, Writes: 130, QueuedWrites: 4}
	if a.stats != wantStats || a.rep != wantRep || a.flush != 1370 {
		t.Errorf("outcomes moved off the dial-per-attempt transport's:\n stats %v, want %v\n report %+v, want %+v\n flush %d, want 1370",
			a.stats, wantStats, a.rep, wantRep, a.flush)
	}
}

// TestChaosEmptyPlanMatchesEq4 pins the degenerate case: an empty plan
// through the full fault machinery (injector attached, retries on) still
// accounts exactly eq. 4's D — the middleware is invisible on the happy
// path.
func TestChaosEmptyPlanMatchesEq4(t *testing.T) {
	p := genProblem(t, 4, 5, 0.2, 0.6, 3)
	scheme := sra.Run(p, sra.Options{}).Scheme
	c, _ := chaosCluster(t, p, scheme, Plan{Seed: 1})
	rep, err := c.DriveTrafficReport()
	if err != nil {
		t.Fatal(err)
	}
	if want := scheme.Cost(); rep.NTC != want {
		t.Errorf("fault-instrumented happy path NTC %d != eq.4 D %d", rep.NTC, want)
	}
	if rep.FailedReads != 0 || rep.QueuedWrites != 0 {
		t.Errorf("empty plan degraded requests: %+v", rep)
	}
}
