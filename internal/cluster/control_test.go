package cluster

import (
	"bytes"
	"testing"

	"drp/internal/core"
	"drp/internal/membership"
	"drp/internal/netsim"
	"drp/internal/plan"
	"drp/internal/store"
)

// controlProblem builds a 5-site universe whose primaries live on sites
// 0..3 and where object 1 has no demand at site 4 — so a join of site 4
// must leave object 1's placement untouched when the mini polish is off.
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

func newControlPlane(t *testing.T, p *core.Problem, journal *store.Journal) (*ControlPlane, *membership.Tracker) {
	t.Helper()
	tr, err := membership.NewTracker(p.Sites(), []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := NewControlPlane(p, tr, ControlOptions{MiniGenerations: -1, Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	return cp, tr
}

// TestControlPlaneEmitsPlanPerView drives a join and a leave through the
// tracker and checks the control plane's reactions: one valid plan per
// view in epoch order, incremental adaptation (an object without demand
// at the joined site keeps its placement), deterministic primary
// reassignment off the departed site, and journal persistence of the
// latest plan.
func TestControlPlaneEmitsPlanPerView(t *testing.T) {
	p := controlProblem(t)
	dir := t.TempDir()
	j, err := store.OpenJournal(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cp, tr := newControlPlane(t, p, j)

	first := cp.Plan()
	if first.Epoch != 1 {
		t.Fatalf("founding plan has epoch %d, want 1", first.Epoch)
	}
	if err := first.Validate(p); err != nil {
		t.Fatal(err)
	}
	if first.View.Has(4) {
		t.Fatal("founding plan includes the absent site")
	}

	var emitted []*plan.Plan
	cp.Subscribe(func(pl *plan.Plan) { emitted = append(emitted, pl) })
	cp.Bind()

	// Join: site 4 enters; only objects with demand there may move.
	if _, err := tr.JoinSite(4); err != nil {
		t.Fatal(err)
	}
	if err := cp.Err(); err != nil {
		t.Fatal(err)
	}
	if len(emitted) != 1 {
		t.Fatalf("join emitted %d plans", len(emitted))
	}
	joinPlan := emitted[0]
	if joinPlan.Epoch != 2 || !joinPlan.View.Has(4) {
		t.Fatalf("join plan epoch %d view %v", joinPlan.Epoch, joinPlan.View.Members)
	}
	if err := joinPlan.Validate(p); err != nil {
		t.Fatal(err)
	}
	if got, want := joinPlan.Placement[1], first.Placement[1]; len(got) != len(want) {
		t.Fatalf("object 1 (no demand at site 4) moved: %v -> %v", want, got)
	} else {
		for x := range got {
			if got[x] != want[x] {
				t.Fatalf("object 1 (no demand at site 4) moved: %v -> %v", want, got)
			}
		}
	}

	// Leave: site 0 departs; its primary (object 0) must land on site 1,
	// the nearest survivor with capacity, and nothing may remain on 0.
	if _, err := tr.LeaveSite(0); err != nil {
		t.Fatal(err)
	}
	if err := cp.Err(); err != nil {
		t.Fatal(err)
	}
	if len(emitted) != 2 {
		t.Fatalf("leave emitted %d plans total", len(emitted))
	}
	leavePlan := emitted[1]
	if leavePlan.Epoch != 3 || leavePlan.View.Has(0) {
		t.Fatalf("leave plan epoch %d view %v", leavePlan.Epoch, leavePlan.View.Members)
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

	// The journal holds the latest emitted plan, recoverable cold.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := store.OpenJournal(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	epoch, data, ok := r.LatestPlan()
	if !ok || epoch != 3 {
		t.Fatalf("journal LatestPlan epoch %d ok %v", epoch, ok)
	}
	want, err := leavePlan.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("journaled plan differs from emitted:\n  %s\n  %s", data, want)
	}
}

// TestControlPlaneDeterministic replays the same membership history
// through two independent control planes and requires identical plans.
func TestControlPlaneDeterministic(t *testing.T) {
	p := controlProblem(t)
	run := func() []*plan.Plan {
		cp, tr := newControlPlane(t, p, nil)
		var plans []*plan.Plan
		cp.Subscribe(func(pl *plan.Plan) { plans = append(plans, pl) })
		cp.Bind()
		plans = append(plans, cp.Plan())
		if _, err := tr.JoinSite(4); err != nil {
			t.Fatal(err)
		}
		if _, err := tr.LeaveSite(2); err != nil {
			t.Fatal(err)
		}
		if err := cp.Err(); err != nil {
			t.Fatal(err)
		}
		return plans
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs emitted %d vs %d plans", len(a), len(b))
	}
	for i := range a {
		if a[i].Fingerprint() != b[i].Fingerprint() {
			t.Fatalf("plan %d diverged across identical replays:\n  %s\n  %s", i, a[i].Fingerprint(), b[i].Fingerprint())
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
	tr, err := membership.NewTracker(p.Sites(), []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := NewControlPlane(p, tr, ControlOptions{MiniGenerations: -1})
	if err != nil {
		t.Fatal(err)
	}
	cp.Bind()
	if _, err := tr.LeaveSite(0); err != nil {
		t.Fatal(err)
	}
	if err := cp.Err(); err != nil {
		t.Fatal(err)
	}
	if got := cp.Primaries()[0]; got != 2 {
		t.Fatalf("object 0's primary went to site %d, want capacity-feasible site 2", got)
	}
}
