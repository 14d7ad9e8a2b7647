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
	"drp/internal/netnode"
	"drp/internal/sra"
	"drp/internal/xrand"
)

// behind returns B = Σ o_k·C(SP_k,j) over the holders j in the primary's
// R_k whose version is below the primary's, how many such holders there
// are, and over how many objects.
func behind(c *netnode.Cluster, p *core.Problem) (cost int64, holders, objects int) {
	pl := c.Plan()
	for k := 0; k < p.Objects(); k++ {
		sp := pl.Primaries[k]
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
	add("chaos/spans", chaos, chaosSpanPlan(chaos))
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
			b, n, _ := behind(c, tc.p)
			cost, remaining, err := c.Reconcile()
			if err != nil {
				t.Fatal(err)
			}
			if remaining != 0 {
				t.Errorf("%d replicas left behind after reconcile", remaining)
			}
			pl := c.Plan()
			for k := 0; k < tc.p.Objects(); k++ {
				sp := pl.Primaries[k]
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
			reshipped += n
		})
	}
	if reshipped == 0 {
		t.Error("no case left a holder behind its primary; the oracle is vacuous")
	}
}
