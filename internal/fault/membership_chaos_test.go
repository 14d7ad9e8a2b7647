package fault

// Membership churn under the injector: a durable 4-site view cluster
// joins a 5th site and migrates replicas onto it while every dial
// involving one site carries an injected latency spike. The destination
// of an in-flight copy is killed for real mid-migration — listener dead,
// WAL abandoned without a flush — then restarted from its data
// directory. The restarted node must replay to the exact acknowledged
// state, the journaled plan must resume and converge, the resumed
// remainder's transfer cost must equal its a-priori diff, and the driven
// measurement period afterwards must match the restricted solver's
// eq. 4 cost exactly.

import (
	"bytes"
	"path/filepath"
	"testing"
	"time"

	"drp/internal/core"
	"drp/internal/netnode"
	"drp/internal/netsim"
	"drp/internal/plan"
	"drp/internal/sra"
	"drp/internal/store"
)

// churnProblem builds the 5-site universe used by the membership chaos
// scenario: primaries confined to sites 0..3 so the cluster boots on
// four members, read-heavy demand so the solver replicates widely.
func churnProblem(t *testing.T) *core.Problem {
	t.Helper()
	topo := netsim.NewTopology(5)
	for _, l := range [][3]int64{{0, 1, 2}, {1, 2, 1}, {2, 3, 2}, {3, 4, 1}} {
		if err := topo.AddLink(int(l[0]), int(l[1]), l[2]); err != nil {
			t.Fatal(err)
		}
	}
	dist, err := topo.Distances()
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewProblem(core.Config{
		Sizes:      []int64{4, 3, 2, 5},
		Capacities: []int64{14, 14, 14, 14, 14},
		Primaries:  []int{0, 1, 2, 3},
		Reads: [][]int64{
			{36, 8, 4, 0},
			{12, 32, 8, 4},
			{4, 12, 28, 8},
			{0, 4, 12, 36},
			{24, 4, 8, 28},
		},
		Writes: [][]int64{
			{2, 0, 1, 0},
			{0, 2, 0, 1},
			{1, 0, 2, 0},
			{0, 1, 0, 2},
			{1, 0, 1, 1},
		},
		Dist: dist,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// churnSolve solves the view-restricted problem and lifts the scheme.
func churnSolve(t *testing.T, p *core.Problem, members []int, epoch int) (*plan.Plan, int64) {
	t.Helper()
	view := plan.View{Epoch: epoch, Members: members}
	prim := make([]int, p.Objects())
	for k := range prim {
		prim[k] = p.Primary(k)
	}
	rp, err := plan.Restrict(p, view, prim)
	if err != nil {
		t.Fatal(err)
	}
	res := sra.Run(rp, sra.Options{})
	pl := plan.Lift(view, res.Scheme)
	pl.Epoch = epoch
	return pl, res.Scheme.Cost()
}

// holdingsPlan reconstructs what the members actually hold — the same
// a-priori basis ResumeMigration diffs from.
func holdingsPlan(p *core.Problem, c *netnode.Cluster) *plan.Plan {
	members := c.Members()
	pl := &plan.Plan{
		View:      plan.View{Members: members},
		Primaries: make([]int, p.Objects()),
		Placement: make([][]int, p.Objects()),
	}
	for k := 0; k < p.Objects(); k++ {
		pl.Primaries[k] = p.Primary(k)
		for _, m := range members {
			if c.Node(m).Holds(k) {
				pl.Placement[k] = append(pl.Placement[k], m)
			}
		}
	}
	return pl
}

func TestMembershipChurnKillMidMigration(t *testing.T) {
	p := churnProblem(t)
	root := t.TempDir()

	c, err := netnode.StartDurableView(p, root, store.Options{Sync: store.SyncNever}, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	j, err := store.OpenJournal(filepath.Join(root, "coord"))
	if err != nil {
		t.Fatal(err)
	}
	c.AttachJournal(j)

	// Every dial involving site 2 rides a 1ms latency spike for the whole
	// run — churn happens under degraded, not pristine, conditions.
	fp := Plan{Seed: 7, Events: []Event{{Kind: kindLatency, Site: 2, Step: 0, DelayMS: 1}}}
	if err := fp.validate(p.Sites()); err != nil {
		t.Fatal(err)
	}
	in := NewInjector(fp)
	Attach(c, in)
	c.SetRetry(3)
	c.SetRequestTimeout(2 * time.Second)

	pl4, _ := churnSolve(t, p, []int{0, 1, 2, 3}, 1)
	if _, err := c.ApplyPlan(pl4); err != nil {
		t.Fatal(err)
	}

	// Site 4 joins; its node must route through the injector too.
	node4, err := c.Join(4)
	if err != nil {
		t.Fatal(err)
	}
	node4.SetDialer(in.dialerFor(4))

	target, targetCost := churnSolve(t, p, []int{0, 1, 2, 3, 4}, 2)
	steps, err := plan.Diff(c.Plan(), target, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) < 2 {
		t.Fatalf("migration too small to interrupt: %d steps", len(steps))
	}

	// Kill the destination of the second copy right before the copy
	// lands — the SIGKILL-equivalent: listener gone, WAL unflushed.
	var killed []byte
	victim := -1
	stepIdx := 0
	c.SetStepHook(func(s plan.Step) {
		if stepIdx == 1 && s.Kind == plan.Copy {
			victim = s.Site
			if err := c.Node(victim).Kill(); err != nil {
				t.Errorf("kill: %v", err)
			}
			killed = c.Node(victim).Store().EncodeState()
		}
		stepIdx++
	})
	rep1, err := c.ApplyPlan(target)
	c.SetStepHook(nil)
	if err == nil {
		t.Fatal("migration survived a killed copy destination")
	}
	if victim < 0 {
		t.Fatal("kill hook never fired")
	}

	// Restart the victim from its WAL: byte-identical acknowledged state.
	node, err := c.RestartNode(victim)
	if err != nil {
		t.Fatal(err)
	}
	if got := node.Store().EncodeState(); !bytes.Equal(got, killed) {
		t.Fatalf("victim %d replayed to different state:\n  %s\n  %s", victim, killed, got)
	}

	// Resume from the journaled plan: the remainder is the diff against
	// the actual holdings, executed exactly once.
	remainder, err := plan.Diff(holdingsPlan(p, c), target, p)
	if err != nil {
		t.Fatal(err)
	}
	rep2, resumed, err := c.ResumeMigration()
	if err != nil {
		t.Fatal(err)
	}
	if !resumed {
		t.Fatal("journaled plan not resumed")
	}
	if rep2.Completed != rep2.Steps || rep2.Steps != len(remainder) {
		t.Fatalf("resume ran %d/%d steps, remainder diff had %d", rep2.Completed, rep2.Steps, len(remainder))
	}
	if want := plan.TotalCost(remainder); rep2.MigrationNTC != want {
		t.Fatalf("resume NTC %d, a-priori remainder cost %d", rep2.MigrationNTC, want)
	}
	if total, apriori := rep1.MigrationNTC+rep2.MigrationNTC, plan.TotalCost(steps); total > apriori {
		t.Fatalf("crash+resume moved %d units of cost, full migration costs %d", total, apriori)
	}

	// Plan version converged: the deployed plan is the journaled target.
	if !c.Plan().Equal(target) {
		t.Fatal("deployed plan did not converge to the journaled target")
	}
	for k := 0; k < p.Objects(); k++ {
		for _, m := range c.Members() {
			if c.Node(m).Holds(k) != target.Has(m, k) {
				t.Fatalf("site %d holds(%d)=%v, target says %v", m, k, c.Node(m).Holds(k), target.Has(m, k))
			}
		}
	}

	// The measurement period under the converged plan accounts exactly
	// the restricted solver's eq. 4 cost — latency spikes delay, but
	// never re-route or re-price, the traffic.
	got, err := c.DriveTraffic()
	if err != nil {
		t.Fatal(err)
	}
	if got != targetCost {
		t.Fatalf("post-churn driven NTC %d, solver cost %d", got, targetCost)
	}
}
