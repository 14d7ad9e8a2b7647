package netnode

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	ctrl "drp/internal/cluster"
	"drp/internal/core"
	"drp/internal/netsim"
	"drp/internal/plan"
	"drp/internal/sra"
	"drp/internal/store"
	"drp/internal/workload"
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
// the members' records still route a primary to or that holds a replica
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

// countCommands counts every coordinator command attempt c sends from now
// on; failAt >= 0 fails the attempt with that index (0-based).
func countCommands(c *Cluster, failAt int) *int {
	sent := new(int)
	c.SetCommandDialer(func(int) error {
		*sent++
		if *sent-1 == failAt {
			return errors.New("injected command failure")
		}
		return nil
	})
	return sent
}

// requireHeld checks that each member's holdings, primary record SP_k and
// replica set R_k equal the deployed plan, and that every holder's version
// is its primary's — checked before any write, which would bring a stale
// replica up to date.
func requireHeld(t *testing.T, c *Cluster, what string) {
	t.Helper()
	pl := c.Plan()
	for _, m := range c.Members() {
		st := c.Node(m).Store()
		for k := range pl.Placement {
			if st.Holds(k) != pl.Has(m, k) || st.PrimaryOf(k) != pl.Primaries[k] || !slices.Equal(st.Replicas(k), pl.Placement[k]) {
				t.Fatalf("%s: site %d object %d holds %v, primary %d, R_k %v; plan epoch %d places %v, primary %d",
					what, m, k, st.Holds(k), st.PrimaryOf(k), st.Replicas(k), pl.Epoch, pl.Placement[k], pl.Primaries[k])
			}
		}
	}
	for k := range pl.Placement {
		want := c.Node(pl.Primaries[k]).Version(k)
		for _, h := range pl.Placement[k] {
			if v := c.Node(h).Version(k); v != want {
				t.Fatalf("%s: site %d holds object %d at version %d, its primary %d at %d", what, h, k, v, pl.Primaries[k], want)
			}
		}
	}
}

// requireConverged checks the state every migration must end in: the
// records and versions requireHeld checks, one measurement period that
// accounts exactly the plan's eq. 4 serve cost, and every holder at its
// primary's version again after one write per object.
func requireConverged(t *testing.T, c *Cluster, what string) {
	t.Helper()
	requireHeld(t, c, what+", before any write")
	got, err := c.DriveTraffic()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if want := plan.ServeCost(c.p, c.Plan()); got != want {
		t.Fatalf("%s: driven NTC %d, eq. 4 serve cost %d", what, got, want)
	}
	writeEach(t, c)
	requireHeld(t, c, what+", after one write per object")
}

// writeEach sends one write per object through the first member, so
// copies have a version other than 0 to get right.
func writeEach(t *testing.T, c *Cluster) {
	t.Helper()
	for k := 0; k < c.p.Objects(); k++ {
		if _, err := c.Node(c.Members()[0]).Write(k); err != nil {
			t.Fatal(err)
		}
	}
}

// writeAvailable is writeEach after a failed migration: a cut between a
// promotion's two waves leaves no member naming itself the object's
// primary, and then its write must be refused not_primary until the next
// migration, never served. Any other not_primary fails, two members
// naming themselves SP_k included.
func writeAvailable(t *testing.T, c *Cluster) {
	t.Helper()
	for k := 0; k < c.p.Objects(); k++ {
		_, err := c.Node(c.Members()[0]).Write(k)
		var re *replyError
		if len(selfPrimaries(c, k)) == 0 && errors.As(err, &re) && re.Code == codeNotPrimary {
			continue
		}
		if err != nil {
			t.Fatalf("write of object %d: %v", k, err)
		}
	}
}

// selfPrimaries lists the members whose records name themselves SP_k:
// each of them accepts a write of k.
func selfPrimaries(c *Cluster, k int) []int {
	var self []int
	for _, m := range c.Members() {
		if c.Node(m).Store().PrimaryOf(k) == m {
			self = append(self, m)
		}
	}
	return self
}

// TestDeployCommandsPinned pins how many coordinator commands a migration
// from a converged cluster sends: an SRA Deploy onto a fresh 5×8 cluster
// per seed and onto each bench-shaped instance, and in drpnet's reshape
// scenario (-sites 6 -objects 12 -members 0,1,2,3,5 -join 4) the join of
// site 4 and the plan applied after it. A refresh that re-sends records
// every member already holds, or skips ones a member lacks, moves them;
// so does a wave that sends a member more than one command.
func TestDeployCommandsPinned(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		want int
	}{{31, 14}, {32, 12}, {41, 14}, {65, 12}} {
		p := gen(t, 5, 8, 0.2, 0.6, tc.seed)
		c, err := StartLocal(p)
		if err != nil {
			t.Fatal(err)
		}
		sent := countCommands(c, -1)
		if _, err := c.Deploy(sra.Run(p, sra.Options{}).Scheme); err != nil {
			t.Fatal(err)
		}
		c.Close()
		if *sent != tc.want {
			t.Errorf("seed %d: the deploy sent %d commands, want %d", tc.seed, *sent, tc.want)
		}
	}
	for i, in := range benchInstances(t) {
		c := startBench(t, in.p, in.durable)
		sent := countCommands(c, -1)
		// The primaries-only scheme a fresh cluster already serves, which
		// is what wire_read deploys, sends nothing.
		if _, err := c.Deploy(core.NewScheme(in.p)); err != nil || *sent != 0 {
			t.Fatalf("%s: the primaries-only deploy sent %d commands: %v", in.name, *sent, err)
		}
		if _, err := c.Deploy(sra.Run(in.p, sra.Options{}).Scheme); err != nil {
			t.Fatal(err)
		}
		c.Close()
		if want := []int{18, 17}[i]; *sent != want {
			t.Errorf("%s: the deploy sent %d commands, want %d", in.name, *sent, want)
		}
	}

	p, err := workload.Generate(workload.NewSpec(6, 12, 0.05, 0.15), 1)
	if err != nil {
		t.Fatal(err)
	}
	founding := []int{0, 1, 2, 3, 5}
	c, err := StartView(p, founding)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cp, err := ctrl.NewControlPlane(p, founding, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ApplyPlan(cp.Plan()); err != nil {
		t.Fatal(err)
	}
	view, err := cp.Plan().View.Join(p.Sites(), 4)
	if err != nil {
		t.Fatal(err)
	}
	sent := countCommands(c, -1)
	if _, err := c.Join(4); err != nil {
		t.Fatal(err)
	}
	if *sent != 1 {
		t.Errorf("the join sent %d commands, want 1", *sent)
	}
	next, err := cp.React(view)
	if err != nil {
		t.Fatal(err)
	}
	sent = countCommands(c, -1)
	if _, err := c.ApplyPlan(next); err != nil {
		t.Fatal(err)
	}
	if *sent != 17 {
		t.Errorf("the plan after the join sent %d commands, want 17", *sent)
	}
}

// TestViewClusterConvergesAfterInterruptedMigration fails each coordinator
// command of one migration in turn — copies, a promotion of object 0 from
// site 4 down to site 0, the routing refresh and a drop — writes once per
// object, and then carries on the three ways a coordinator can: (a)
// resume the journaled target,
// (b) apply a different plan, (c) restart every site from disk and
// deploy a scheme. Whichever command failed, every member ends holding and
// recording exactly the deployed plan. A failed promotion leaves members
// disagreeing on the primary, a failed copy or drop leaves holdings no
// plan describes, a failed refresh leaves a member's R_k behind its
// primary's, and a copy whose site the primary's R_k does not yet name
// misses the writes.
func TestViewClusterConvergesAfterInterruptedMigration(t *testing.T) {
	p := viewProblem(t)
	members := []int{0, 1, 2, 3, 4}
	view := plan.View{Members: members}
	mk := func(epoch int, primaries []int, placement ...[]int) *plan.Plan {
		pl := &plan.Plan{Epoch: epoch, View: view, Primaries: primaries, Placement: placement}
		if err := pl.Validate(p); err != nil {
			t.Fatal(err)
		}
		return pl
	}
	from := mk(1, []int{4, 1, 2, 3}, []int{4}, []int{1}, []int{2, 4}, []int{3})
	// from → to: copy objects 0, 1 and 3 in, promote object 0 from site 4
	// to site 0, refresh, drop object 2 from site 4.
	to := mk(2, []int{0, 1, 2, 3}, []int{0, 4}, []int{0, 1}, []int{2}, []int{3, 4})
	other := mk(3, []int{0, 1, 2, 3}, []int{0}, []int{1}, []int{2}, []int{3})
	scheme := sra.Run(p, sra.Options{}).Scheme

	// setup boots a journaled durable cluster on root, deploys from and
	// stamps a version on every object.
	setup := func(root string) *Cluster {
		c, err := StartDurableView(p, root, testStoreOpts(), members)
		if err != nil {
			t.Fatal(err)
		}
		j, err := store.OpenJournal(filepath.Join(root, "coord"))
		if err != nil {
			t.Fatal(err)
		}
		c.AttachJournal(j)
		if _, err := c.ApplyPlan(from); err != nil {
			t.Fatal(err)
		}
		writeEach(t, c)
		return c
	}
	c := setup(t.TempDir())
	commands := countCommands(c, -1)
	if _, err := c.ApplyPlan(to); err != nil {
		t.Fatal(err)
	}
	c.Close()

	continuations := []struct {
		name string
		run  func(c *Cluster, root string) (*Cluster, error)
	}{
		{"resume", func(c *Cluster, _ string) (*Cluster, error) {
			_, resumed, err := c.ResumeMigration()
			if err == nil && !resumed {
				err = errors.New("nothing resumed")
			}
			return c, err
		}},
		{"apply another plan", func(c *Cluster, _ string) (*Cluster, error) {
			_, err := c.ApplyPlan(other)
			return c, err
		}},
		{"restart and deploy", func(c *Cluster, root string) (*Cluster, error) {
			c.Close()
			r, err := StartDurableView(p, root, testStoreOpts(), members)
			if err != nil {
				return nil, err
			}
			_, err = r.Deploy(scheme)
			return r, err
		}},
	}
	for fail := 0; fail < *commands; fail++ {
		for _, cont := range continuations {
			what := fmt.Sprintf("command %d failed, then %s", fail, cont.name)
			root := t.TempDir()
			c := setup(root)
			countCommands(c, fail)
			if _, err := c.ApplyPlan(to); err == nil {
				t.Fatalf("%s: the migration survived its failure", what)
			}
			c.SetCommandDialer(nil)
			writeAvailable(t, c)
			r, err := cont.run(c, root)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			requireConverged(t, r, what)
			r.Close()
		}
	}
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.RemoveAll(dst); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestViewClusterRejoinFromStaleDisk: site 4 is drained and leaves, but
// rejoins from the directory it had before the drain — it still holds its
// replicas, records the old replica sets and names itself object 3's
// primary. Whichever of the join's commands fails, the next plan converges
// every member, the rejoined site included.
func TestViewClusterRejoinFromStaleDisk(t *testing.T) {
	p := viewProblem(t)
	mk := func(epoch int, members, primaries []int, placement ...[]int) *plan.Plan {
		pl := &plan.Plan{Epoch: epoch, View: plan.View{Members: members}, Primaries: primaries, Placement: placement}
		if err := pl.Validate(p); err != nil {
			t.Fatal(err)
		}
		return pl
	}
	all, four := []int{0, 1, 2, 3, 4}, []int{0, 1, 2, 3}
	before := mk(1, all, []int{0, 1, 2, 4}, []int{0, 4}, []int{1, 4}, []int{2}, []int{3, 4})
	// Object 2 never touches site 4, but its replica set grows while the
	// site is away: only the rejoiner's R_2 is behind.
	drained := mk(2, four, []int{0, 1, 2, 3}, []int{0}, []int{1}, []int{1, 2}, []int{3})
	after := mk(3, all, []int{0, 1, 2, 3}, []int{0, 4}, []int{1}, []int{1, 2}, []int{3, 4})

	// setup leaves a cluster of sites 0-3 whose site 4 left drained, with
	// the pre-drain directory back in site 4's place.
	setup := func(root string) *Cluster {
		c, err := StartDurableView(p, root, testStoreOpts(), all)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.ApplyPlan(before); err != nil {
			t.Fatal(err)
		}
		writeEach(t, c)
		c.Close()
		stale := filepath.Join(root, "stale-site-4")
		copyDir(t, siteDir(root, 4), stale)
		if c, err = StartDurableView(p, root, testStoreOpts(), all); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ApplyPlan(drained); err != nil {
			t.Fatal(err)
		}
		writeEach(t, c)
		if err := c.Leave(4); err != nil {
			t.Fatal(err)
		}
		copyDir(t, stale, siteDir(root, 4))
		return c
	}
	c := setup(t.TempDir())
	sent := countCommands(c, -1)
	if _, err := c.Join(4); err != nil {
		t.Fatal(err)
	}
	commands := *sent
	if _, err := c.ApplyPlan(after); err != nil {
		t.Fatal(err)
	}
	requireConverged(t, c, "undisturbed join")
	c.Close()

	for fail := 0; fail < commands; fail++ {
		what := fmt.Sprintf("join command %d failed", fail)
		c := setup(t.TempDir())
		countCommands(c, fail)
		if _, err := c.Join(4); err == nil {
			t.Fatalf("%s: the join survived its failure", what)
		}
		c.SetCommandDialer(nil)
		if _, err := c.ApplyPlan(after); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		requireConverged(t, c, what)
		c.Close()
	}
}

// TestViewClusterCopyFollowsMajorityPrimary: one member still names object
// 0's old primary, site 0, which has since dropped it. A copy must take its
// version from site 1, the primary every other member routes writes to,
// not from the lowest site any member names.
func TestViewClusterCopyFollowsMajorityPrimary(t *testing.T) {
	p := viewProblem(t)
	c, err := StartView(p, []int{0, 1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	moved := c.Plan()
	moved.Epoch = 1
	moved.Primaries[0], moved.Placement[0] = 1, []int{1}
	if _, err := c.ApplyPlan(moved); err != nil {
		t.Fatal(err)
	}
	for range 3 {
		if _, err := c.Node(1).Write(0); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.record(4, message{Op: "primary", Object: 0, Site: 0}); err != nil {
		t.Fatal(err)
	}
	next := c.Plan()
	next.Epoch = 2
	next.Placement[0] = []int{1, 2}
	if _, err := c.ApplyPlan(next); err != nil {
		t.Fatal(err)
	}
	if got, want := c.Node(2).Version(0), c.Node(1).Version(0); got != want || want != 3 {
		t.Fatalf("the copy at site 2 has version %d, its primary %d", got, want)
	}
	requireConverged(t, c, "after the copy")
}

// TestViewClusterRecopiesReplicaThatMissedWrites: a migration copies
// object 0 onto site 3 and fails at its first routing command, so the
// primary's R_0 does not name site 3 and the next write never reaches it.
// Retrying the plan must copy the replica afresh: site 3 serves reads, so
// it has to hold the primary's version before any further write.
func TestViewClusterRecopiesReplicaThatMissedWrites(t *testing.T) {
	p := viewProblem(t)
	c, err := StartView(p, []int{0, 1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	next := c.Plan()
	next.Epoch = 1
	next.Placement[0] = []int{0, 3}
	countCommands(c, 1)
	if _, err := c.ApplyPlan(next); err == nil {
		t.Fatal("the migration survived its failed refresh")
	}
	c.SetCommandDialer(nil)
	if !c.Node(3).Store().Holds(0) || slices.Contains(c.Node(0).Store().Replicas(0), 3) {
		t.Fatalf("site 3 holds object 0: %v; the primary's R_0 is %v", c.Node(3).Store().Holds(0), c.Node(0).Store().Replicas(0))
	}
	writeEach(t, c)
	rep, err := c.ApplyPlan(next)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Steps != 1 || rep.MigrationNTC == 0 {
		t.Fatalf("the retry ran %d steps at migration NTC %d, want the one copy", rep.Steps, rep.MigrationNTC)
	}
	if got, want := c.Node(3).Version(0), c.Node(0).Version(0); got != want {
		t.Fatalf("site 3 serves object 0 at version %d, its primary at %d", got, want)
	}
	requireConverged(t, c, "after the retry")
}

// leaveBehind migrates site 3 in as a replica of object 0 and has site 0,
// its primary, serve one write of it with the 0→3 link cut, so site 3 is
// left one version behind.
func leaveBehind(t *testing.T, c *Cluster) {
	t.Helper()
	next := c.Plan()
	next.Epoch++
	next.Placement[0] = []int{0, 3}
	if _, err := c.ApplyPlan(next); err != nil {
		t.Fatal(err)
	}
	c.Node(0).SetDialer(func(site int) error {
		if site == 3 {
			return errors.New("link 0→3 cut")
		}
		return nil
	})
	if _, err := c.Node(0).Write(0); err != nil {
		t.Fatal(err)
	}
	c.Node(0).SetDialer(nil)
	if got, want := c.Node(3).Version(0), c.Node(0).Version(0); got == want {
		t.Fatalf("the write reached site 3 through the cut link (version %d)", got)
	}
}

// TestReconcileAfterMigrationRecopy: a write's broadcast misses site 3, so
// site 3's replica of object 0 is behind its primary, and the next
// migration copies it afresh. Site 3 is then at its primary's version:
// Reconcile ships nothing, because the migration already paid for the
// copy.
func TestReconcileAfterMigrationRecopy(t *testing.T) {
	p := viewProblem(t)
	c, err := StartView(p, []int{0, 1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	leaveBehind(t, c)
	rep, err := c.ApplyPlan(c.Plan())
	if err != nil {
		t.Fatal(err)
	}
	if want := p.Size(0) * p.Cost(0, 3); rep.MigrationNTC != want {
		t.Fatalf("the migration re-copied for %d, want %d", rep.MigrationNTC, want)
	}
	if cost, remaining, err := c.Reconcile(); err != nil || cost != 0 || remaining != 0 {
		t.Fatalf("Reconcile after the re-copy: cost %d, remaining %d, err %v; want 0, 0, nil", cost, remaining, err)
	}
}

// applyHalf applies next with the command dialer failing the attempt
// with index failAt, which must fail the migration, and checks that each
// member then records routes[m] as object 0's primary.
func applyHalf(t *testing.T, c *Cluster, next *plan.Plan, failAt int, routes map[int]int) {
	t.Helper()
	countCommands(c, failAt)
	if _, err := c.ApplyPlan(next); err == nil {
		t.Fatalf("command %d was failed, yet the migration to epoch %d succeeded", failAt, next.Epoch)
	}
	c.SetCommandDialer(nil)
	for m, want := range routes {
		if got := c.Node(m).Store().PrimaryOf(0); got != want {
			t.Fatalf("site %d records site %d as object 0's primary, want %d", m, got, want)
		}
	}
}

// writeAround has site w write object k with its link to site cut down, so
// the write's broadcast leaves site cut behind w's version.
func writeAround(t *testing.T, c *Cluster, w, k, cut int) {
	t.Helper()
	c.Node(w).SetDialer(func(site int) error {
		if site == cut {
			return fmt.Errorf("link %d→%d cut", w, cut)
		}
		return nil
	})
	if _, err := c.Node(w).Write(k); err != nil {
		t.Fatal(err)
	}
	c.Node(w).SetDialer(nil)
	if got, want := c.Node(cut).Version(k), c.Node(w).Version(k); got == want {
		t.Fatalf("the write reached site %d through the cut link (version %d)", cut, got)
	}
}

// TestReconcileAfterHalfPromotion: object 0's promotion from site 0 to
// site 1 reaches only sites 0 and 1, so the adopted target still names
// site 0 while site 1 is the one member whose record names itself SP_0.
// A write at site 1 then misses site 3. Reconcile must send the re-sync
// to site 1, the primary writes reach, and bring site 3 to its version.
func TestReconcileAfterHalfPromotion(t *testing.T) {
	p := viewProblem(t)
	c, err := StartView(p, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	spread := c.Plan()
	spread.Epoch = 1
	spread.Placement[0] = []int{0, 1, 3}
	if _, err := c.ApplyPlan(spread); err != nil {
		t.Fatal(err)
	}
	promoted := spread.Clone()
	promoted.Epoch = 2
	promoted.Primaries[0] = 1
	// The migration is one promotion wave, one command per member in
	// ascending order: the third, to site 2, fails.
	applyHalf(t, c, promoted, 2, map[int]int{0: 1, 1: 1, 2: 0, 3: 0})
	if got := c.Plan().Primaries[0]; got != 0 {
		t.Fatalf("the adopted target names site %d as object 0's primary, want 0", got)
	}
	writeAround(t, c, 1, 0, 3)

	cost, remaining, err := c.Reconcile()
	if err != nil {
		t.Fatalf("reconcile: %v", err)
	}
	if want := p.Size(0) * p.Cost(1, 3); cost != want || remaining != 0 {
		t.Fatalf("reconcile cost %d with %d left behind, want %d and 0", cost, remaining, want)
	}
	if got, want := c.Node(3).Version(0), c.Node(1).Version(0); got != want {
		t.Fatalf("site 3 holds object 0 at version %d after reconcile, its primary site 1 at %d", got, want)
	}
}

// TestReconcileNamesSplitPrimaryRecords: site 0 records the swap of the
// primaries of objects 0 and 1 between sites 0 and 1, and no other member
// does, so no member's record names itself SP_0 and two, sites 0 and 1,
// name themselves SP_1. A migration's promotion waves never leave this
// state (TestPromotionCutLeavesOnePrimary), so the test writes the records
// itself. Reconcile does not guess a primary for either object: it
// re-syncs object 2's replica a write left behind and returns an error
// naming objects 0 and 1.
func TestReconcileNamesSplitPrimaryRecords(t *testing.T) {
	p := viewProblem(t)
	c, err := StartView(p, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	spread := c.Plan()
	spread.Epoch = 1
	spread.Placement[0], spread.Placement[1], spread.Placement[2] = []int{0, 1}, []int{0, 1}, []int{2, 3}
	if _, err := c.ApplyPlan(spread); err != nil {
		t.Fatal(err)
	}
	for k, sp := range []int{1, 0} {
		if err := c.record(0, message{Op: "primary", Object: k, Site: sp}); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Node(1).Store().PrimaryOf(1); got != 1 || c.Node(0).Store().PrimaryOf(1) != 0 {
		t.Fatalf("sites 0 and 1 record %d and %d as object 1's primary, want 0 and 1", c.Node(0).Store().PrimaryOf(1), got)
	}
	writeAround(t, c, 2, 2, 3)

	cost, remaining, err := c.Reconcile()
	if err == nil || !strings.Contains(err.Error(), "objects [0 1]") {
		t.Fatalf("reconcile over split records: %v, want an error naming objects [0 1]", err)
	}
	if want := p.Size(2) * p.Cost(2, 3); cost != want || remaining != 0 {
		t.Fatalf("reconcile cost %d with %d left behind, want %d and 0", cost, remaining, want)
	}
	if got, want := c.Node(3).Version(2), c.Node(2).Version(2); got != want {
		t.Fatalf("site 3 holds object 2 at version %d after reconcile, its primary at %d", got, want)
	}
}

// TestPromotionCutLeavesOnePrimary cuts a promotion migration at every
// command in turn and requires that no cut leaves two members naming
// themselves an object's primary: both would accept writes. The
// migrations swap the primaries of objects 0 and 1 between sites 0 and 1,
// so one new primary is below its old one in member order and the other
// above, and move each alone. After every cut the migration, run again,
// converges.
func TestPromotionCutLeavesOnePrimary(t *testing.T) {
	p := viewProblem(t)
	for _, tc := range []struct {
		name  string
		moves map[int]int // object → its new primary
	}{
		{"swap", map[int]int{0: 1, 1: 0}},
		{"up", map[int]int{0: 1}},
		{"down", map[int]int{1: 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// start boots a cluster with objects 0 and 1 held at sites 0
			// and 1 and returns the target that moves their primaries.
			start := func() (*Cluster, *plan.Plan) {
				c, err := StartView(p, []int{0, 1, 2, 3})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(c.Close)
				spread := c.Plan()
				spread.Epoch = 1
				spread.Placement[0], spread.Placement[1] = []int{0, 1}, []int{0, 1}
				if _, err := c.ApplyPlan(spread); err != nil {
					t.Fatal(err)
				}
				next := spread.Clone()
				next.Epoch = 2
				for k, sp := range tc.moves {
					next.Primaries[k] = sp
				}
				return c, next
			}
			c, next := start()
			commands := countCommands(c, -1)
			if _, err := c.ApplyPlan(next); err != nil {
				t.Fatal(err)
			}
			for cut := 0; cut < *commands; cut++ {
				c, next := start()
				countCommands(c, cut)
				if _, err := c.ApplyPlan(next); err == nil {
					t.Fatalf("command %d was failed, yet the migration succeeded", cut)
				}
				c.SetCommandDialer(nil)
				for k := range next.Placement {
					if self := selfPrimaries(c, k); len(self) > 1 {
						t.Errorf("the cut at command %d leaves sites %v naming themselves object %d's primary", cut, self, k)
					}
				}
				if _, err := c.ApplyPlan(next); err != nil {
					t.Fatalf("the migration after the cut at command %d: %v", cut, err)
				}
				requireConverged(t, c, fmt.Sprintf("after the cut at command %d", cut))
			}
		})
	}
}

// TestLeaveRefusedWhileRecordsRouteToLeaver: object 0 is copied to the
// joiner, site 4, and its promotion to site 4 reaches only sites 0 and 1.
// The adopted target still says site 4 is drained, but it holds object 0,
// and once that copy is dropped the records of sites 0 and 1 still route
// object 0's writes to it. Leave must refuse both times; after a migration
// to the target rewrites those records, site 4 leaves.
func TestLeaveRefusedWhileRecordsRouteToLeaver(t *testing.T) {
	p := viewProblem(t)
	c, err := StartView(p, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Join(4); err != nil {
		t.Fatal(err)
	}
	target := c.Plan()
	next := target.Clone()
	next.Epoch = 1
	next.View = plan.View{Epoch: 1, Members: []int{0, 1, 2, 3, 4}}
	next.Placement[0] = []int{0, 4}
	next.Primaries[0] = 4
	// The copy to site 4 is command 0; the promotion goes to sites 0, 1
	// and 2 as commands 1, 2 and 3, and the one to site 2 fails.
	applyHalf(t, c, next, 3, map[int]int{0: 4, 1: 4, 2: 0, 4: 0})
	if !c.Node(4).Holds(0) {
		t.Fatal("the copy of object 0 to site 4 did not land")
	}
	refused := func(what string) {
		t.Helper()
		if err := c.Leave(4); !errors.Is(err, errNotDrained) {
			t.Fatalf("leave of site 4 while %s: %v, want %v", what, err, errNotDrained)
		}
		if c.Node(4) == nil || !slices.Equal(c.Members(), []int{0, 1, 2, 3, 4}) {
			t.Fatalf("a refused leave moved the members to %v", c.Members())
		}
	}
	refused("it holds object 0")
	if err := c.record(4, message{Op: "drop", Object: 0}); err != nil {
		t.Fatal(err)
	}
	refused("sites 0 and 1 route object 0 to it")

	if _, err := c.ApplyPlan(target); err != nil {
		t.Fatal(err)
	}
	if err := c.Leave(4); err != nil {
		t.Fatalf("leave after the records converged on the target: %v", err)
	}
	if _, err := c.Node(0).Write(0); err != nil {
		t.Fatalf("write of object 0 from site 0 after the leave: %v", err)
	}
}

// TestViewClusterJoinAfterFailedMigration: a migration fails part-way, and
// before anyone resumes it a site joins. The join migrates to the plan the
// cluster last adopted, so it rolls back whatever prefix of the failed
// migration landed; the journal keeps the newer target (a lower epoch is
// never recorded over it), and resuming then converges to that target.
func TestViewClusterJoinAfterFailedMigration(t *testing.T) {
	p := viewProblem(t)
	four := plan.View{Members: []int{0, 1, 2, 3}}
	mk := func(epoch int, primaries []int, placement ...[]int) *plan.Plan {
		pl := &plan.Plan{Epoch: epoch, View: four, Primaries: primaries, Placement: placement}
		if err := pl.Validate(p); err != nil {
			t.Fatal(err)
		}
		return pl
	}
	from := mk(1, []int{0, 1, 2, 3}, []int{0}, []int{1}, []int{2}, []int{3})
	// from → to: copy objects 0, 1 and 3, promote objects 0 and 3, refresh,
	// drop the old primaries' replicas of objects 0 and 3.
	to := mk(2, []int{1, 1, 2, 2}, []int{1}, []int{0, 1}, []int{2}, []int{2})
	spread := &plan.Plan{Epoch: 3, View: plan.View{Members: []int{0, 1, 2, 3, 4}},
		Primaries: []int{1, 1, 2, 2}, Placement: [][]int{{1, 4}, {0, 1}, {2}, {2, 4}}}
	if err := spread.Validate(p); err != nil {
		t.Fatal(err)
	}

	setup := func() *Cluster {
		c, err := StartView(p, four.Members)
		if err != nil {
			t.Fatal(err)
		}
		j, err := store.OpenJournal(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		c.AttachJournal(j)
		if _, err := c.ApplyPlan(from); err != nil {
			t.Fatal(err)
		}
		writeEach(t, c)
		return c
	}
	c := setup()
	commands := countCommands(c, -1)
	if _, err := c.ApplyPlan(to); err != nil {
		t.Fatal(err)
	}
	c.Close()

	for fail := 0; fail < *commands; fail++ {
		what := fmt.Sprintf("command %d failed", fail)
		c := setup()
		countCommands(c, fail)
		if _, err := c.ApplyPlan(to); err == nil {
			t.Fatalf("%s: the migration survived its failure", what)
		}
		c.SetCommandDialer(nil)
		if _, err := c.Join(4); err != nil {
			t.Fatalf("%s: join: %v", what, err)
		}
		if got := c.Plan().Epoch; got != from.Epoch {
			t.Fatalf("%s: the join left plan epoch %d deployed, want %d", what, got, from.Epoch)
		}
		requireHeld(t, c, what+", then site 4 joined")
		if _, resumed, err := c.ResumeMigration(); err != nil || !resumed {
			t.Fatalf("%s: resume after the join: resumed %v, %v", what, resumed, err)
		}
		if got := c.Plan().Epoch; got != to.Epoch {
			t.Fatalf("%s: the resume left plan epoch %d deployed, want %d", what, got, to.Epoch)
		}
		requireHeld(t, c, what+", then site 4 joined, then resumed")
		// Eq. 4 prices a plan over its own view: spread onto the joiner.
		if _, err := c.ApplyPlan(spread); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		requireConverged(t, c, what+", then site 4 joined, resumed and took replicas")
		c.Close()
	}
}

// benchInstances are SRA deploys on the two bench-shaped instances: the
// mixed_sra pattern on a memory cluster and the durable_rw one on a
// durable cluster fsyncing every 16 appends.
func benchInstances(t testing.TB) []struct {
	name    string
	p       *core.Problem
	durable bool
} {
	t.Helper()
	zipf, err := workload.GenerateZipf(workload.NewZipfSpec(6, 120, 0.05, 0.5, 0.8), 1)
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := workload.Generate(workload.NewSpec(6, 120, 0.05, 0.3), 1)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name    string
		p       *core.Problem
		durable bool
	}{{"mixed_sra", zipf, false}, {"durable_rw", uniform, true}}
}

// startBench boots a fresh cluster for one bench instance.
func startBench(t testing.TB, p *core.Problem, durable bool) *Cluster {
	t.Helper()
	var c *Cluster
	var err error
	if durable {
		c, err = StartDurable(p, t.TempDir(), store.Options{Sync: store.SyncInterval, SyncEvery: 16})
	} else {
		c, err = StartLocal(p)
	}
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDeployRecordsPinned pins what an SRA deploy leaves on every member
// of the two bench-shaped instances: the SHA-256 of each member's encoded
// state (holdings, versions, SP_k, R_k, NTC) and the migration report.
// One write per object first gives every copy a version other than 0 to
// take from its primary. How the records travel may change; what the
// members end up holding and recording may not.
func TestDeployRecordsPinned(t *testing.T) {
	want := map[string]struct {
		rep     ApplyReport
		digests []string
	}{
		"mixed_sra": {ApplyReport{Steps: 255, Completed: 255, MigrationNTC: 48478}, []string{
			"9ff71748f885e1032e8a11211f809f7e9fcaa98eda60906dfe50434404109f66",
			"ca47e89fe7f34300f5e20a65df4718837bfdc833961ffc937ff40ee5c9c7b120",
			"f60f7fefd2f3c29822c83883e71a06738ba9a90231f87db8c43e2557681dfc26",
			"5d7d9265aa312b7dc3cc8165536789917ff087d42a9466b0166e831775caea09",
			"c9eec9e8917a9298ce97f284d6551e445d7c57d836270f9693402aac3114b716",
			"dfa3e656b07701a7e4237c4536d35b54c74493b48c4f2a1397e0bc06ba15f724",
		}},
		"durable_rw": {ApplyReport{Steps: 140, Completed: 140, MigrationNTC: 25920}, []string{
			"06cc049d910fed191821f81d56dec8f49ad4435cb630c30cca890ede4fc67fb9",
			"8b885cdb662257e26e1c961e9c099c33a66e4e5a77a4ea72ff6654e51b261381",
			"a015f85fb973177b068576786cfe20be14c891e9405436149c52663bb229d642",
			"fd38c3f4c231cba25df1859dde503b60eae699cc18a19a1b3184c35dadad88c7",
			"bb0028e9db3769d8e91b0a9fa46bf6d375aef5f51a06a8a44c1878f5a5e97d0b",
			"c2cca897f24fca4e6755a0969621ab007c7eadfdce001107c118e2301575bfcf",
		}},
	}
	for _, in := range benchInstances(t) {
		c := startBench(t, in.p, in.durable)
		writeEach(t, c)
		target := plan.FromScheme(sra.Run(in.p, sra.Options{}).Scheme)
		target.View = plan.View{Members: c.Members()}
		rep, err := c.ApplyPlan(target)
		if err != nil {
			t.Fatal(err)
		}
		requireHeld(t, c, in.name)
		var digests []string
		for _, m := range c.Members() {
			digests = append(digests, fmt.Sprintf("%x", sha256.Sum256(c.Node(m).Store().EncodeState())))
		}
		c.Close()
		w := want[in.name]
		if *rep != w.rep {
			t.Errorf("%s: report %+v, want %+v", in.name, *rep, w.rep)
		}
		if !slices.Equal(digests, w.digests) {
			t.Errorf("%s: member state digests\n  %q\nwant\n  %q", in.name, digests, w.digests)
		}
	}
}
