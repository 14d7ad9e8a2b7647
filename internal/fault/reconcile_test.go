package fault

// The reconcile oracle. A write pays eq. 4's broadcast term once: one copy
// o_k·C(SP_k,j) per replica j. A holder that missed broadcasts is behind
// its primary's version until it catches up (a later broadcast, its own
// shipped write, a migration's re-copy) or Reconcile re-syncs it. After the
// flush, Reconcile must leave every holder in its primary's R_k at the
// primary's version and charge exactly B, the copies of the holders
// behind just before it ran: a holder that caught up owes nothing more.

import (
	"fmt"
	"testing"
	"time"

	"drp/internal/core"
	"drp/internal/metrics"
	"drp/internal/netnode"
	"drp/internal/sra"
	"drp/internal/xrand"
)

// primaryOf returns the member whose record names itself k's primary:
// the site writes to k reach, whose version and R_k say which holders are
// behind. It fails the test where no member's record does, or more than
// one does.
func primaryOf(t testing.TB, c *netnode.Cluster, k int) int {
	t.Helper()
	sp := -1
	for _, m := range c.Members() {
		if c.Node(m).Store().PrimaryOf(k) != m {
			continue
		}
		if sp >= 0 {
			t.Fatalf("sites %d and %d both record themselves as object %d's primary", sp, m, k)
		}
		sp = m
	}
	if sp < 0 {
		t.Fatalf("no member records itself as object %d's primary", k)
	}
	return sp
}

// behind returns B = Σ o_k·C(SP_k,j) over the holders j in the primary's
// R_k whose version is below the primary's, how many such holders there
// are, and over how many objects.
func behind(t testing.TB, c *netnode.Cluster, p *core.Problem) (cost int64, holders, objects int) {
	for k := 0; k < p.Objects(); k++ {
		sp := primaryOf(t, c, k)
		primary := c.Node(sp)
		v, was := primary.Version(k), holders
		for _, j := range primary.Store().Replicas(k) {
			node := c.Node(j)
			if j == sp || node == nil || !node.Holds(k) {
				continue
			}
			if node.Version(k) < v {
				cost += p.Size(k) * p.Cost(sp, j)
				holders++
			}
		}
		if holders > was {
			objects++
		}
	}
	return cost, holders, objects
}

// oracleCase is one faulted run the oracle checks.
type oracleCase struct {
	name string
	p    *core.Problem
	plan Plan
}

// oracleCases gathers the plans of the chaos, kill-and-recover and fuzz
// suites on their problems, and a seeded sweep of plans that each crash
// one replica site and add a drop and a blackhole. The kill-and-recover
// windows run as connectivity crashes, and a fuzz seed's open-ended window
// closes when the traffic ends, so that recovery runs on a live cluster.
func oracleCases(t *testing.T) []oracleCase {
	var cases []oracleCase
	add := func(name string, p *core.Problem, plan Plan) {
		cases = append(cases, oracleCase{name, p, plan})
	}

	chaos := genProblem(t, 6, 8, 0.15, 0.9, 21)
	for _, np := range seededPlans(chaos) {
		add("chaos/"+np.name, chaos, np.plan)
	}
	for _, sc := range spanCases(chaos) {
		add("chaos/"+sc.name, chaos, sc.plan)
	}
	restart := genProblem(t, 5, 6, 0.25, 1.0, 7)
	if plan, ok := restartPlan(restart, sra.Run(restart, sra.Options{}).Scheme); ok {
		add("chaos/restart", restart, plan)
	}
	drops := genProblem(t, 5, 6, 0.2, 0.8, 11)
	add("chaos/drops", drops, dropPlan(drops))

	for _, p := range []*core.Problem{genProblem(t, 6, 8, 0.25, 0.9, 41), genProblem(t, 5, 6, 0.25, 0.8, 42)} {
		victim := pickVictim(p, sra.Run(p, sra.Options{}).Scheme)
		if victim < 0 {
			continue
		}
		_, blockEnd := siteBlock(p, victim)
		if total := totalRequests(p); blockEnd+1 < total {
			add(fmt.Sprintf("recover/%dx%d", p.Sites(), p.Objects()), p, Plan{Seed: 17, Events: []Event{
				{Kind: KindCrash, Site: victim, Step: blockEnd + 1, Until: total},
			}})
		}
	}

	small := genProblem(t, 3, 4, 0.3, 0.8, 5)
	horizon := totalRequests(small) + 1
	for i, seed := range fuzzSeeds {
		plan, err := parsePlan([]byte(seed))
		if err != nil {
			t.Fatal(err)
		}
		plan = plan.Normalize(small.Sites(), 2*time.Millisecond)
		for e := range plan.Events {
			if ev := &plan.Events[e]; ev.Kind != KindRestart && ev.Until == 0 {
				ev.Until = max(horizon, ev.Step+1)
			}
		}
		add(fmt.Sprintf("fuzz/seed%d", i), small, plan)
	}

	for seed := uint64(1); seed <= 8; seed++ {
		p := genProblem(t, 6, 10, 0.2, 0.8, 300+seed)
		scheme := sra.Run(p, sra.Options{}).Scheme
		var replicas []int // sites holding a copy they are not primary of
		for j := 0; j < p.Sites(); j++ {
			for k := 0; k < p.Objects(); k++ {
				if scheme.Has(j, k) && p.Primary(k) != j {
					replicas = append(replicas, j)
					break
				}
			}
		}
		if len(replicas) == 0 {
			continue
		}
		rng := xrand.New(seed)
		total := totalRequests(p)
		victim := replicas[rng.Intn(len(replicas))]
		from := total/3 + int64(rng.Intn(int(total/3)))
		a, b := rng.Intn(p.Sites()), rng.Intn(p.Sites()-1)
		if b >= a {
			b++
		}
		add(fmt.Sprintf("sweep/seed%d", seed), p, Plan{Seed: seed, Events: []Event{
			{Kind: KindCrash, Site: victim, Step: from, Until: total},
			{Kind: KindDrop, Site: rng.Intn(p.Sites()), Peer: coordinator, Step: 1, Until: total, Prob: 0.3},
			{Kind: KindBlackhole, Site: a, Peer: b, Step: total / 4, Until: 3 * total / 4},
		}})
	}
	return cases
}

// TestReconcileOracle runs every oracle case through traffic, the flush
// and Reconcile, then checks that every holder in R_k is at its primary's
// version, that Reconcile reports nothing left behind, and that it charged
// exactly B.
func TestReconcileOracle(t *testing.T) {
	var reshipped int
	for _, tc := range oracleCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			scheme := sra.Run(tc.p, sra.Options{}).Scheme
			c, in := chaosCluster(t, tc.p, scheme, tc.plan)
			reg := metrics.NewRegistry()
			c.EnableMetrics(reg)
			if _, err := c.DriveTrafficReport(); err != nil {
				t.Fatal(err)
			}
			in.AdvanceTo(tc.plan.MaxStep())
			if _, err := c.FlushPending(); err != nil {
				t.Fatal(err)
			}
			if left := c.PendingWrites(); left != 0 {
				t.Fatalf("%d writes still queued after flush", left)
			}
			b, n, _ := behind(t, c, tc.p)
			cost, remaining, err := c.Reconcile()
			if err != nil {
				t.Fatal(err)
			}
			if remaining != 0 {
				t.Errorf("%d replicas left behind after reconcile", remaining)
			}
			for k := 0; k < tc.p.Objects(); k++ {
				sp := primaryOf(t, c, k)
				v := c.Node(sp).Version(k)
				for _, j := range c.Node(sp).Store().Replicas(k) {
					if node := c.Node(j); node.Holds(k) && node.Version(k) != v {
						t.Errorf("object %d: holder %d at version %d, primary %d at %d", k, j, node.Version(k), sp, v)
					}
				}
			}
			t.Logf("B %d over %d holders behind, reconcile cost %d", b, n, cost)
			if cost != b {
				t.Errorf("reconcile cost %d, want B = %d for the %d holders behind", cost, b, n)
			}
			if terms, ledger := ntcTerms(reg).sum(), c.TotalNTC(); terms != ledger {
				t.Errorf("drp_net_ntc_total terms sum to %d, the sites' ledgers to %d", terms, ledger)
			}
			reshipped += n
		})
	}
	if reshipped == 0 {
		t.Error("no case left a holder behind its primary; the oracle is vacuous")
	}
}

// terms is one reading of drp_net_ntc_total, by term.
type terms struct{ read, readFailover, write, writeFlush, reconcile int64 }

func ntcTerms(reg *metrics.Registry) terms {
	term := func(name string) int64 {
		return reg.Counter("drp_net_ntc_total", "", metrics.Labels{"term": name}).Value()
	}
	return terms{term("read"), term("read_failover"), term("write"), term("write_flush"), term("reconcile")}
}

func (tm terms) sum() int64 {
	return tm.read + tm.readFailover + tm.write + tm.writeFlush + tm.reconcile
}

// TestNTCTermsSumToLedger: the terms of drp_net_ntc_total partition the
// ledger the sites keep (Cluster.TotalNTC). Over the span plan that leaves
// a holder behind, they sum to it after the traffic, after the flush and
// after Reconcile; the traffic's terms sum to the report's NTC, and the
// flush and reconcile terms hold exactly what those calls returned.
func TestNTCTermsSumToLedger(t *testing.T) {
	p := genProblem(t, 6, 8, 0.15, 0.9, 21)
	plan := chaosBehindSpanPlan(p)
	c, in := chaosCluster(t, p, sra.Run(p, sra.Options{}).Scheme, plan)
	reg := metrics.NewRegistry()
	c.EnableMetrics(reg)
	ledger := func(phase string) terms {
		t.Helper()
		tm := ntcTerms(reg)
		if got, want := tm.sum(), c.TotalNTC(); got != want {
			t.Errorf("after the %s the terms %+v sum to %d, the ledgers to %d", phase, tm, got, want)
		}
		return tm
	}

	rep, err := c.DriveTrafficReport()
	if err != nil {
		t.Fatal(err)
	}
	tm := ledger("traffic")
	if got := tm.read + tm.readFailover + tm.write; got != rep.NTC {
		t.Errorf("read, read_failover and write sum to %d, the traffic accounted %d", got, rep.NTC)
	}
	if tm.readFailover == 0 || rep.QueuedWrites == 0 {
		t.Errorf("the plan failed over no read (%d) or queued no write (%d); the terms are vacuous", tm.readFailover, rep.QueuedWrites)
	}

	in.AdvanceTo(plan.MaxStep())
	flush, err := c.FlushPending()
	if err != nil {
		t.Fatal(err)
	}
	if tm = ledger("flush"); tm.writeFlush != flush {
		t.Errorf("write_flush term %d, FlushPending returned %d", tm.writeFlush, flush)
	}

	b, _, _ := behind(t, c, p)
	rec, _, err := c.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if tm = ledger("reconcile"); tm.reconcile != rec || rec != b || b == 0 {
		t.Errorf("reconcile term %d, Reconcile returned %d, B = %d (want all equal and above 0)", tm.reconcile, rec, b)
	}
}
