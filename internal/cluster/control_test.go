package cluster

import (
	"slices"
	"testing"

	"drp/internal/core"
	"drp/internal/netsim"
	"drp/internal/plan"
	"drp/internal/workload"
)

// controlProblem builds a 5-site universe whose primaries live on sites
// 0..3 and where object 1 has no demand at site 4.
func controlProblem(t *testing.T) *core.Problem {
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
			{24, 0, 8, 28},
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

func newControlPlane(t *testing.T, p *core.Problem) *ControlPlane {
	t.Helper()
	cp, err := NewControlPlane(p, []int{0, 1, 2, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// react moves the control plane's current view on by one join (a site
// not in the view) or leave (a member) and returns the plan it emits.
func react(t *testing.T, cp *ControlPlane, site int) *plan.Plan {
	t.Helper()
	v := cp.Plan().View
	var err error
	if v.Has(site) {
		v, err = v.Leave(site)
	} else {
		v, err = v.Join(cp.p.Sites(), site)
	}
	if err != nil {
		t.Fatal(err)
	}
	pl, err := cp.React(v)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// checkFingerprints pins each plan of a sequence to its Fingerprint.
func checkFingerprints(t *testing.T, plans []*plan.Plan, want []string) {
	t.Helper()
	if len(plans) != len(want) {
		t.Fatalf("%d plans, want %d", len(plans), len(want))
	}
	for i, pl := range plans {
		if got := pl.Fingerprint(); got != want[i] {
			t.Errorf("plan %d (epoch %d, view %v) has fingerprint %s, want %s", i, pl.Epoch, pl.View, got, want[i])
		}
	}
}

// TestControlPlaneEmitsPlanPerView drives a join and a leave through the
// control plane and checks its reactions: one valid plan per view in
// epoch order and deterministic primary reassignment off the departed
// site.
func TestControlPlaneEmitsPlanPerView(t *testing.T) {
	p := controlProblem(t)
	cp := newControlPlane(t, p)

	first := cp.Plan()
	if first.Epoch != 1 || first.View.Epoch != 0 {
		t.Fatalf("founding plan has epoch %d over view epoch %d, want 1 over 0", first.Epoch, first.View.Epoch)
	}
	if err := first.Validate(p); err != nil {
		t.Fatal(err)
	}
	if first.View.Has(4) {
		t.Fatal("founding plan includes the absent site")
	}

	// Join: site 4 enters.
	joinPlan := react(t, cp, 4)
	if joinPlan.Epoch != 2 || joinPlan.View.Epoch != 1 || !joinPlan.View.Has(4) {
		t.Fatalf("join plan epoch %d view %v", joinPlan.Epoch, joinPlan.View)
	}
	if err := joinPlan.Validate(p); err != nil {
		t.Fatal(err)
	}

	// Leave: site 0 departs; its primary (object 0) must land on site 1,
	// the nearest survivor with capacity, and nothing may remain on 0.
	leavePlan := react(t, cp, 0)
	if leavePlan.Epoch != 3 || leavePlan.View.Epoch != 2 || leavePlan.View.Has(0) {
		t.Fatalf("leave plan epoch %d view %v", leavePlan.Epoch, leavePlan.View)
	}
	if err := leavePlan.Validate(p); err != nil {
		t.Fatal(err)
	}
	if got := leavePlan.Primaries[0]; got != 1 {
		t.Fatalf("primary of object 0 reassigned to %d, want nearest survivor 1", got)
	}
	for k := 0; k < p.Objects(); k++ {
		if leavePlan.Has(0, k) {
			t.Fatalf("leave plan still places object %d on the departed site", k)
		}
	}
	if !cp.Plan().Equal(leavePlan) {
		t.Fatalf("Plan() = %+v, want the last emitted plan %+v", cp.Plan(), leavePlan)
	}
	checkFingerprints(t, []*plan.Plan{first, joinPlan, leavePlan},
		[]string{"cda726760e763d8e", "6707d5ebd7ca0348", "772e5d973a95994a"})
}

// TestControlPlaneDeterministic replays the same membership history
// through two independent control planes and requires identical plans,
// pinned to their fingerprints.
func TestControlPlaneDeterministic(t *testing.T) {
	p := controlProblem(t)
	run := func() []*plan.Plan {
		cp := newControlPlane(t, p)
		return []*plan.Plan{cp.Plan(), react(t, cp, 4), react(t, cp, 2)}
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Fingerprint() != b[i].Fingerprint() {
			t.Fatalf("plan %d diverged across identical replays:\n  %s\n  %s", i, a[i].Fingerprint(), b[i].Fingerprint())
		}
	}
	checkFingerprints(t, a, []string{"cda726760e763d8e", "6707d5ebd7ca0348", "044d18dfb8e8b069"})
}

// TestControlPlanePolishPinned pins one replan on each of two generated
// instances: a join of the first site that holds no primary, and site 0
// leaving. The mini-GRA polish moves replicas in both: without it the
// plans' fingerprints are 7f864c94b336ea33 and 3da162c47336abd7.
func TestControlPlanePolishPinned(t *testing.T) {
	for _, c := range []struct {
		sites, objects int
		seed           uint64
		join           bool
		want           string
	}{
		{6, 12, 1, true, "a33df0ba5844cbab"},
		{10, 40, 3, false, "ed6f85537b8475a5"},
	} {
		p, err := workload.Generate(workload.NewSpec(c.sites, c.objects, 0.05, 0.15), c.seed)
		if err != nil {
			t.Fatal(err)
		}
		site := 0
		if c.join {
			hosts := make([]bool, c.sites)
			for k := 0; k < c.objects; k++ {
				hosts[p.Primary(k)] = true
			}
			site = slices.Index(hosts, false)
		}
		members := make([]int, 0, c.sites)
		for i := 0; i < c.sites; i++ {
			if !c.join || i != site {
				members = append(members, i)
			}
		}
		cp, err := NewControlPlane(p, members, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := react(t, cp, site).Fingerprint(); got != c.want {
			t.Errorf("%d×%d seed %d: replan fingerprint %s, want %s", c.sites, c.objects, c.seed, got, c.want)
		}
	}
}

// TestControlPlaneCapacityAwareReassignment pins the reassignment rule:
// when the nearest survivor has no primary capacity left, the next
// nearest takes the primary.
func TestControlPlaneCapacityAwareReassignment(t *testing.T) {
	topo := netsim.NewTopology(3)
	if err := topo.AddLink(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddLink(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddLink(0, 2, 3); err != nil {
		t.Fatal(err)
	}
	dist, err := topo.Distances()
	if err != nil {
		t.Fatal(err)
	}
	// Site 1 is nearest to site 0 but its capacity is consumed by its own
	// primary (object 1, size 4 of 4); site 2 has room.
	p, err := core.NewProblem(core.Config{
		Sizes:      []int64{3, 4},
		Capacities: []int64{7, 4, 7},
		Primaries:  []int{0, 1},
		Reads:      [][]int64{{5, 1}, {1, 5}, {2, 2}},
		Writes:     [][]int64{{1, 0}, {0, 1}, {1, 1}},
		Dist:       dist,
	})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := NewControlPlane(p, []int{0, 1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := react(t, cp, 0).Primaries[0]; got != 2 {
		t.Fatalf("object 0's primary went to site %d, want capacity-feasible site 2", got)
	}

}

// TestControlPlaneRefusedViewChangesNothing: a view the control plane
// cannot plan for — site 0's second primary fits nowhere once the first
// has taken site 1's room — is refused without a trace, so the next event
// plans from the last emitted plan, original primaries included.
func TestControlPlaneRefusedViewChangesNothing(t *testing.T) {
	topo := netsim.NewTopology(4)
	for _, l := range [][3]int64{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}} {
		if err := topo.AddLink(int(l[0]), int(l[1]), l[2]); err != nil {
			t.Fatal(err)
		}
	}
	dist, err := topo.Distances()
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewProblem(core.Config{
		Sizes:      []int64{3, 4, 5},
		Capacities: []int64{7, 3, 5, 20},
		Primaries:  []int{0, 0, 2},
		Reads:      [][]int64{{5, 5, 1}, {2, 1, 1}, {1, 1, 5}, {1, 2, 3}},
		Writes:     [][]int64{{1, 1, 0}, {0, 0, 0}, {0, 0, 1}, {0, 1, 1}},
		Dist:       dist,
	})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := NewControlPlane(p, []int{0, 1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := cp.Plan()
	v, err := before.View.Leave(0)
	if err != nil {
		t.Fatal(err)
	}
	if pl, err := cp.React(v); err == nil {
		t.Fatalf("a view without primary capacity produced plan %+v", pl)
	}
	if !cp.Plan().Equal(before) {
		t.Fatalf("a refused view moved the plan from %+v to %+v", before, cp.Plan())
	}
	pl := react(t, cp, 3)
	if pl.Epoch != before.Epoch+1 || !slices.Equal(pl.Primaries, before.Primaries) {
		t.Fatalf("after a refused view, a join gave plan epoch %d with primaries %v, want epoch %d with %v",
			pl.Epoch, pl.Primaries, before.Epoch+1, before.Primaries)
	}
}
