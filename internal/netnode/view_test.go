package netnode

import (
	"bytes"
	"errors"
	"path/filepath"
	"slices"
	"testing"

	"drp/internal/core"
	"drp/internal/netsim"
	"drp/internal/plan"
	"drp/internal/sra"
	"drp/internal/store"
)

// viewProblem builds a 5-site universe on a line topology
// (0 -2- 1 -1- 2 -2- 3 -1- 4) whose primaries all live on sites 0..3, so
// a cluster can boot on those four members and site 4 can join later.
func viewProblem(t *testing.T) *core.Problem {
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

// universePrimaries returns the problem's primary sites per object.
func universePrimaries(p *core.Problem) []int {
	sp := make([]int, p.Objects())
	for k := range sp {
		sp[k] = p.Primary(k)
	}
	return sp
}

// solveView runs the static greedy over the view-restricted problem and
// lifts the result to a universe plan with the given epoch.
func solveView(t *testing.T, p *core.Problem, view plan.View, primaries []int, epoch int) (*plan.Plan, int64) {
	t.Helper()
	rp, err := plan.Restrict(p, view, primaries)
	if err != nil {
		t.Fatal(err)
	}
	res := sra.Run(rp, sra.Options{})
	pl := plan.Lift(view, res.Scheme)
	pl.Epoch = epoch
	if err := pl.Validate(p); err != nil {
		t.Fatalf("lifted plan invalid: %v", err)
	}
	return pl, res.Scheme.Cost()
}

// TestViewClusterJoinMigrateLeave is the end-to-end membership scenario:
// a 4-site durable cluster serves its solved placement, a 5th site joins
// and a re-solved plan migrates replicas onto it while reads keep being
// served, then an original site is drained and removed. Driven traffic
// matches the restricted solver's exact eq. 4 cost at every stage, and
// the survivors' state is byte-identical across a full restart.
func TestViewClusterJoinMigrateLeave(t *testing.T) {
	p := viewProblem(t)
	root := t.TempDir()
	view4, err := plan.NewView(p.Sites(), []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	c, err := StartDurableView(p, root, store.Options{}, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	j, err := store.OpenJournal(filepath.Join(root, "coord"))
	if err != nil {
		t.Fatal(err)
	}
	c.AttachJournal(j)

	// Stage 1: solve and deploy over the founding four members.
	pl4, cost4 := solveView(t, p, view4, universePrimaries(p), 1)
	if _, err := c.ApplyPlan(pl4); err != nil {
		t.Fatal(err)
	}
	got, err := c.DriveTraffic()
	if err != nil {
		t.Fatal(err)
	}
	if got != cost4 {
		t.Fatalf("stage 1 driven NTC %d, solver cost %d", got, cost4)
	}

	// Stage 2: site 4 joins; re-solve over five members and migrate.
	// Reads must keep serving at every step of the migration.
	view5, err := view4.Join(p.Sites(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Join(4); err != nil {
		t.Fatal(err)
	}
	pl5, cost5 := solveView(t, p, view5, universePrimaries(p), 2)
	steps, err := plan.Diff(c.Plan(), pl5, p)
	if err != nil {
		t.Fatal(err)
	}
	migrationReads := 0
	c.SetStepHook(func(plan.Step) {
		for k := 0; k < p.Objects(); k++ {
			if _, err := c.Node(1).Read(k); err != nil {
				t.Errorf("read of object %d failed mid-migration: %v", k, err)
			}
			migrationReads++
		}
	})
	rep, err := c.ApplyPlan(pl5)
	c.SetStepHook(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != rep.Steps || rep.Steps != len(steps) {
		t.Fatalf("migration ran %d/%d steps, diff had %d", rep.Completed, rep.Steps, len(steps))
	}
	if want := plan.TotalCost(steps); rep.MigrationNTC != want {
		t.Fatalf("migration NTC %d, a-priori diff cost %d", rep.MigrationNTC, want)
	}
	if len(steps) == 0 || migrationReads == 0 {
		t.Fatalf("expected a non-trivial migration with mid-flight reads (steps %d, reads %d)", len(steps), migrationReads)
	}
	if got, err = c.DriveTraffic(); err != nil {
		t.Fatal(err)
	}
	if got != cost5 {
		t.Fatalf("stage 2 driven NTC %d, solver cost %d", got, cost5)
	}

	// Stage 3: drain site 0 — its primaries move to site 1 (the nearest
	// survivor), a plan over the remaining four members migrates
	// everything off it, and only then does it leave.
	view4b, err := view5.Leave(0)
	if err != nil {
		t.Fatal(err)
	}
	members4b := view4b.Members
	prim4b := universePrimaries(p)
	for k, sp := range prim4b {
		if sp == 0 {
			prim4b[k] = 1
		}
	}
	pl4b, cost4b := solveView(t, p, view4b, prim4b, 3)
	if _, err := c.ApplyPlan(pl4b); err != nil {
		t.Fatal(err)
	}
	if err := c.Leave(0); err != nil {
		t.Fatal(err)
	}
	if c.Node(0) != nil {
		t.Fatal("departed site still has a live node")
	}
	if got, err = c.DriveTraffic(); err != nil {
		t.Fatal(err)
	}
	if got != cost4b {
		t.Fatalf("stage 3 driven NTC %d, solver cost %d", got, cost4b)
	}

	// Restart the survivors from disk: state must be byte-identical and
	// the recovered plan must match a fresh solve on the final view.
	want := make(map[int][]byte)
	for _, m := range members4b {
		want[m] = c.Node(m).Store().EncodeState()
	}
	c.Close()
	c2, err := StartDurableView(p, root, store.Options{}, members4b)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for _, m := range members4b {
		if got := c2.Node(m).Store().EncodeState(); !bytes.Equal(got, want[m]) {
			t.Fatalf("site %d state diverged across restart:\n  %s\n  %s", m, want[m], got)
		}
	}
	rec := c2.Plan()
	for k := 0; k < p.Objects(); k++ {
		if rec.Primaries[k] != pl4b.Primaries[k] {
			t.Fatalf("recovered primary of object %d is %d, plan says %d", k, rec.Primaries[k], pl4b.Primaries[k])
		}
		if len(rec.Placement[k]) != len(pl4b.Placement[k]) {
			t.Fatalf("recovered placement of object %d is %v, plan says %v", k, rec.Placement[k], pl4b.Placement[k])
		}
		for x := range rec.Placement[k] {
			if rec.Placement[k][x] != pl4b.Placement[k][x] {
				t.Fatalf("recovered placement of object %d is %v, plan says %v", k, rec.Placement[k], pl4b.Placement[k])
			}
		}
	}
}

// TestViewClusterResumeAfterCrashMidMigration kills the destination node
// of a copy step mid-migration, restarts the whole cluster from disk and
// resumes from the journaled plan: the remainder executes exactly once,
// its transfer cost matches the a-priori diff against the actual
// holdings, and a second resume finds nothing left to do.
func TestViewClusterResumeAfterCrashMidMigration(t *testing.T) {
	p := viewProblem(t)
	root := t.TempDir()
	members := []int{0, 1, 2, 3, 4}
	c, err := StartDurableView(p, root, store.Options{}, members)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	j, err := store.OpenJournal(filepath.Join(root, "coord"))
	if err != nil {
		t.Fatal(err)
	}
	c.AttachJournal(j)
	view := plan.View{Epoch: 1, Members: members}
	target, targetCost := solveView(t, p, view, universePrimaries(p), 1)
	steps, err := plan.Diff(c.Plan(), target, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) < 3 {
		t.Fatalf("migration too small to interrupt: %d steps", len(steps))
	}
	killAt := 2
	stepIdx := 0
	c.SetStepHook(func(s plan.Step) {
		if stepIdx == killAt {
			_ = c.Node(s.Site).Kill()
		}
		stepIdx++
	})
	rep1, err := c.ApplyPlan(target)
	c.SetStepHook(nil)
	if err == nil {
		t.Fatal("migration survived a killed destination")
	}
	if rep1.Completed != killAt {
		t.Fatalf("completed %d steps before the crash, want %d", rep1.Completed, killAt)
	}

	// The coordinator dies with the cluster; everything restarts from
	// disk and the journal.
	c.Close()
	c2, err := StartDurableView(p, root, store.Options{}, members)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	j2, err := store.OpenJournal(filepath.Join(root, "coord"))
	if err != nil {
		t.Fatal(err)
	}
	c2.AttachJournal(j2)

	// What the sites actually hold after the crash — the a-priori basis
	// for the resumed remainder.
	actual := c2.Plan()
	remainder, err := plan.Diff(actual, target, p)
	if err != nil {
		t.Fatal(err)
	}
	rep2, resumed, err := c2.ResumeMigration()
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
	if !c2.Plan().Equal(target) {
		t.Fatal("resumed cluster did not adopt the journaled plan")
	}
	for k := 0; k < p.Objects(); k++ {
		for _, m := range members {
			if c2.Node(m).Holds(k) != target.Has(m, k) {
				t.Fatalf("site %d holds(%d)=%v, target plan says %v", m, k, c2.Node(m).Holds(k), target.Has(m, k))
			}
		}
	}

	// A second resume finds the target realised: zero steps.
	rep3, resumed, err := c2.ResumeMigration()
	if err != nil || !resumed {
		t.Fatalf("idempotent resume: %v (resumed %v)", err, resumed)
	}
	if rep3.Steps != 0 {
		t.Fatalf("idempotent resume found %d steps", rep3.Steps)
	}

	got, err := c2.DriveTraffic()
	if err != nil {
		t.Fatal(err)
	}
	if got != targetCost {
		t.Fatalf("post-resume driven NTC %d, solver cost %d", got, targetCost)
	}
}

// TestDeployPromotesPrimaryBack: a plan may move a primary off its
// universe site, which a core.Scheme cannot express; Deploy of a scheme
// on top of such a plan used to be refused. It now runs the same engine:
// the universe primary gets its copy back, is promoted, and the cluster
// converges on the scheme at exactly eq. 4's cost.
func TestDeployPromotesPrimaryBack(t *testing.T) {
	p := viewProblem(t)
	c, err := StartView(p, []int{0, 1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	moved := c.Plan()
	moved.Epoch = 1
	moved.Primaries[0] = 1
	moved.Placement[0] = []int{1} // object 0 leaves its universe primary, site 0
	if _, err := c.ApplyPlan(moved); err != nil {
		t.Fatal(err)
	}
	if c.Scheme() != nil || c.Node(0).Holds(0) {
		t.Fatal("object 0 still sits on its universe primary after the promotion plan")
	}

	scheme := sra.Run(p, sra.Options{}).Scheme
	migration, err := c.Deploy(scheme)
	if err != nil {
		t.Fatalf("deploy over a promoted primary: %v", err)
	}
	if migration < p.Size(0)*p.Cost(1, 0) {
		t.Fatalf("migration cost %d does not cover copying object 0 back to site 0", migration)
	}
	if got := c.Plan().Primaries[0]; got != 0 {
		t.Fatalf("object 0 primary is site %d after the deploy, want 0", got)
	}
	if !c.Scheme().Equal(scheme) {
		t.Fatal("deployed scheme differs from the one requested")
	}
	for i := 0; i < p.Sites(); i++ {
		for k := 0; k < p.Objects(); k++ {
			if c.Node(i).Holds(k) != scheme.Has(i, k) {
				t.Fatalf("site %d holds(%d)=%v, scheme says %v", i, k, c.Node(i).Holds(k), scheme.Has(i, k))
			}
		}
	}
	total, err := c.DriveTraffic()
	if err != nil {
		t.Fatal(err)
	}
	if want := scheme.Cost(); total != want {
		t.Fatalf("traffic cost %d != eq.4 D %d", total, want)
	}
}

// TestViewClusterMembershipRejections pins the cluster's side of the
// membership rules: a join of a member or of a site outside the universe,
// a leave of a non-member or of the last member, and a leave of a site
// the deployed plan still routes a primary or places a replica on
// (errNotDrained) are all refused, and none of them moves Members().
func TestViewClusterMembershipRejections(t *testing.T) {
	p := viewProblem(t)
	c, err := StartView(p, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	unchanged := func(what string, want ...int) {
		t.Helper()
		if got := c.Members(); !slices.Equal(got, want) {
			t.Fatalf("%s moved the members to %v, want %v", what, got, want)
		}
	}
	for _, site := range []int{1, 5, -1} {
		if _, err := c.Join(site); err == nil {
			t.Fatalf("join of site %d accepted", site)
		}
		unchanged("a refused join", 0, 1, 2, 3)
	}
	if err := c.Leave(4); err == nil || errors.Is(err, errNotDrained) {
		t.Fatalf("leave of a non-member: %v", err)
	}
	if err := c.Leave(0); !errors.Is(err, errNotDrained) {
		t.Fatalf("leave of the primary of object 0: %v, want ErrNotDrained", err)
	}
	unchanged("leaving a primary site", 0, 1, 2, 3)

	if _, err := c.Join(4); err != nil {
		t.Fatal(err)
	}
	next := c.Plan()
	next.Epoch = 1
	next.View = plan.View{Epoch: 1, Members: []int{0, 1, 2, 3, 4}}
	next.Placement[0] = []int{0, 4}
	if _, err := c.ApplyPlan(next); err != nil {
		t.Fatal(err)
	}
	if err := c.Leave(4); !errors.Is(err, errNotDrained) {
		t.Fatalf("leave of a replica holder: %v, want ErrNotDrained", err)
	}
	unchanged("leaving a replica holder", 0, 1, 2, 3, 4)
	if c.Node(4) == nil || !c.Node(4).Holds(0) {
		t.Fatal("a refused leave shut the site down")
	}

	// A one-member cluster: the member holds everything, yet cannot leave.
	topo := netsim.NewTopology(2)
	if err := topo.AddLink(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	dist, err := topo.Distances()
	if err != nil {
		t.Fatal(err)
	}
	solo, err := core.NewProblem(core.Config{
		Sizes:      []int64{1},
		Capacities: []int64{1, 1},
		Primaries:  []int{0},
		Reads:      [][]int64{{1}, {1}},
		Writes:     [][]int64{{0}, {0}},
		Dist:       dist,
	})
	if err != nil {
		t.Fatal(err)
	}
	one, err := StartView(solo, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	if err := one.Leave(0); err == nil || errors.Is(err, errNotDrained) {
		t.Fatalf("leave of the last member: %v", err)
	}
	if got := one.Members(); !slices.Equal(got, []int{0}) {
		t.Fatalf("a refused leave moved the members to %v", got)
	}
}
