package plan

import (
	"math/rand"
	"testing"

	"drp/internal/core"
	"drp/internal/netsim"
	"drp/internal/sra"
	"drp/internal/workload"
)

func genProblem(t *testing.T, sites, objects int, seed uint64) *core.Problem {
	t.Helper()
	p, err := workload.Generate(workload.NewSpec(sites, objects, 0.05, 0.40), seed)
	if err != nil {
		t.Fatalf("workload.Generate: %v", err)
	}
	return p
}

func TestFromSchemeValidates(t *testing.T) {
	p := genProblem(t, 6, 12, 1)
	s := sra.Run(p, sra.Options{}).Scheme
	pl := FromScheme(s)
	if err := pl.Validate(p); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	if pl.View.Members[0] != 0 || len(pl.View.Members) != p.Sites() {
		t.Fatalf("FromScheme view = %v", pl.View)
	}
	for k := 0; k < p.Objects(); k++ {
		if !pl.Has(p.Primary(k), k) {
			t.Fatalf("object %d primary not placed", k)
		}
	}

	// A primary without a replica must be rejected.
	broken := pl.Clone()
	broken.Primaries[0] = -1
	if err := broken.Validate(p); err == nil {
		t.Fatal("plan with out-of-universe primary accepted")
	}
	broken = pl.Clone()
	sp := broken.Primaries[3]
	keep := broken.Placement[3][:0]
	for _, s := range broken.Placement[3] {
		if s != sp {
			keep = append(keep, s)
		}
	}
	if len(keep) > 0 {
		broken.Placement[3] = keep
		if err := broken.Validate(p); err == nil {
			t.Fatal("plan whose primary holds no replica accepted")
		}
	}
	// A replica outside the view must be rejected.
	broken = pl.Clone()
	broken.View.Members = broken.View.Members[:p.Sites()-1]
	placedOnLast := false
	for k := range broken.Placement {
		if broken.Has(p.Sites()-1, k) {
			placedOnLast = true
		}
	}
	if placedOnLast {
		if err := broken.Validate(p); err == nil {
			t.Fatal("plan placing on a non-member accepted")
		}
	}
	// An empty placement must be rejected.
	broken = pl.Clone()
	broken.Placement[0] = nil
	if err := broken.Validate(p); err == nil {
		t.Fatal("plan with replica-free object accepted")
	}
}

func TestCodecRoundTripAndFingerprint(t *testing.T) {
	p := genProblem(t, 5, 9, 2)
	pl := FromScheme(sra.Run(p, sra.Options{}).Scheme)
	pl.Epoch = 7
	data, err := pl.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !pl.Equal(back) {
		t.Fatalf("round trip changed the plan:\n  in  %+v\n  out %+v", pl, back)
	}
	data2, err := back.Marshal()
	if err != nil {
		t.Fatalf("re-Marshal: %v", err)
	}
	if string(data) != string(data2) {
		t.Fatalf("codec not canonical:\n  %s\n  %s", data, data2)
	}
	if pl.Fingerprint() != back.Fingerprint() {
		t.Fatal("fingerprints differ after round trip")
	}
	changed := pl.Clone()
	changed.Epoch++
	if changed.Fingerprint() == pl.Fingerprint() {
		t.Fatal("fingerprint ignores epoch")
	}
}

// line4 is a 4-site universe on a line with hop cost 1: C(i,j) = |i-j|.
func line4(t *testing.T) *core.Problem {
	t.Helper()
	topo := netsim.NewTopology(4)
	for i := 0; i+1 < 4; i++ {
		topo.Links = append(topo.Links, netsim.Link{From: i, To: i + 1, Cost: 1})
	}
	d, err := topo.Distances()
	if err != nil {
		t.Fatalf("Distances: %v", err)
	}
	p, err := core.NewProblem(core.Config{
		Sizes:      []int64{10, 3},
		Capacities: []int64{40, 40, 40, 40},
		Primaries:  []int{0, 3},
		Reads:      [][]int64{{1, 1}, {1, 1}, {1, 1}, {1, 1}},
		Writes:     [][]int64{{0, 0}, {0, 0}, {0, 0}, {0, 0}},
		Dist:       d,
	})
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	return p
}

func TestDiffOrderingAndRouting(t *testing.T) {
	p := line4(t)
	old := &Plan{
		Epoch:     1,
		View:      View{Epoch: 0, Members: []int{0, 1, 3}},
		Primaries: []int{0, 3},
		Placement: [][]int{{0, 1}, {3}},
	}
	// Site 0 leaves, site 2 joins: object 0's primary moves to 1, object 0
	// gains a replica at 2, object 1 gains one at 2, site 0 drains.
	next := &Plan{
		Epoch:     2,
		View:      View{Epoch: 2, Members: []int{1, 2, 3}},
		Primaries: []int{1, 3},
		Placement: [][]int{{1, 2}, {2, 3}},
	}
	steps, err := Diff(old, next, p)
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	var kinds []StepKind
	for _, s := range steps {
		kinds = append(kinds, s.Kind)
	}
	// Phase order: all copies, then promotes, then drops.
	last := Copy
	for i, k := range kinds {
		if k < last {
			t.Fatalf("step %d of kind %v after %v: %v", i, k, last, steps)
		}
		last = k
	}
	want := []Step{
		// Object 0 to site 2: survivor 1 (cost 1) beats departing 0 (cost 2).
		{Kind: Copy, Object: 0, Site: 2, From: 1, Cost: 10 * 1},
		// Object 1 to site 2 from its only holder 3.
		{Kind: Copy, Object: 1, Site: 2, From: 3, Cost: 3 * 1},
		{Kind: Promote, Object: 0, Site: 1, From: 0},
		{Kind: Drop, Object: 0, Site: 0},
	}
	if len(steps) != len(want) {
		t.Fatalf("got %d steps %v, want %d", len(steps), steps, len(want))
	}
	for i := range want {
		if steps[i] != want[i] {
			t.Fatalf("step %d = %+v, want %+v", i, steps[i], want[i])
		}
	}
	if got := TotalCost(steps); got != 13 {
		t.Fatalf("TotalCost = %d, want 13", got)
	}
	// Plans over different object universes have no diff.
	short := next.Clone()
	short.Placement, short.Primaries = short.Placement[:1], short.Primaries[:1]
	if _, err := Diff(old, short, p); err == nil {
		t.Fatal("Diff across 2 and 1 objects succeeded")
	}
}

func TestDiffSourcePrefersSurvivorEvenWhenFarther(t *testing.T) {
	p := line4(t)
	old := &Plan{
		View:      View{Members: []int{0, 1, 3}},
		Primaries: []int{3, 3},
		Placement: [][]int{{1, 3}, {3}},
	}
	next := &Plan{
		View:      View{Members: []int{0, 3}},
		Primaries: []int{3, 3},
		Placement: [][]int{{0, 3}, {3}},
	}
	steps, err := Diff(old, next, p)
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	// Departing site 1 is one hop from 0 but survivor 3 (three hops) must
	// be preferred; site 1's replica is dropped only after the copy.
	if len(steps) != 2 || steps[0].Kind != Copy || steps[0].From != 3 || steps[1].Kind != Drop || steps[1].Site != 1 {
		t.Fatalf("steps = %v", steps)
	}
	// When the departing site holds the sole copy it must still be usable
	// as a source (drain before drop).
	soleOld := &Plan{
		View:      View{Members: []int{1, 3}},
		Primaries: []int{1, 3},
		Placement: [][]int{{1}, {3}},
	}
	soleNext := &Plan{
		View:      View{Members: []int{3}},
		Primaries: []int{3, 3},
		Placement: [][]int{{3}, {3}},
	}
	steps, err = Diff(soleOld, soleNext, p)
	if err != nil {
		t.Fatalf("Diff sole-copy: %v", err)
	}
	if len(steps) != 3 || steps[0] != (Step{Kind: Copy, Object: 0, Site: 3, From: 1, Cost: 10 * 2}) {
		t.Fatalf("sole-copy steps = %v", steps)
	}
	if steps[1].Kind != Promote || steps[2].Kind != Drop {
		t.Fatalf("sole-copy ordering = %v", steps)
	}
}

// TestServeCostMatchesEquation4 pins the plan-level accounting against the
// core evaluator: over a full-universe view the two are the same formula.
func TestServeCostMatchesEquation4(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		p := genProblem(t, 7, 15, seed)
		s := sra.Run(p, sra.Options{}).Scheme
		pl := FromScheme(s)
		if got, want := ServeCost(p, pl), s.Cost(); got != want {
			t.Fatalf("seed %d: ServeCost = %d, evaluator = %d", seed, got, want)
		}
	}
}

// TestRestrictLiftRoundTrip solves a view-restricted problem and checks
// the lifted plan is valid over the universe, and that restricting again
// reproduces the same dense problem.
func TestRestrictLiftRoundTrip(t *testing.T) {
	p := genProblem(t, 8, 10, 3)
	// Keep every primary in the initial membership (required by the data
	// plane); drop two non-primary sites.
	inUse := make(map[int]bool)
	for k := 0; k < p.Objects(); k++ {
		inUse[p.Primary(k)] = true
	}
	var members []int
	dropped := 0
	for i := 0; i < p.Sites(); i++ {
		if !inUse[i] && dropped < 2 {
			dropped++
			continue
		}
		members = append(members, i)
	}
	if dropped == 0 {
		t.Skip("every site is a primary for this seed")
	}
	view := View{Members: members}
	prims := make([]int, p.Objects())
	for k := range prims {
		prims[k] = p.Primary(k)
	}
	rp, err := Restrict(p, view, prims)
	if err != nil {
		t.Fatalf("Restrict: %v", err)
	}
	if rp.Sites() != len(members) || rp.Objects() != p.Objects() {
		t.Fatalf("restricted dims %dx%d", rp.Sites(), rp.Objects())
	}
	s := sra.Run(rp, sra.Options{}).Scheme
	pl := Lift(view, s)
	if err := pl.Validate(p); err != nil {
		t.Fatalf("lifted plan invalid: %v", err)
	}
	for k := 0; k < p.Objects(); k++ {
		if pl.Primaries[k] != prims[k] {
			t.Fatalf("object %d primary moved from %d to %d during lift", k, prims[k], pl.Primaries[k])
		}
	}
	// The dense solve's cost equals the universe-side plan accounting: the
	// restricted evaluator and ServeCost over the view are the same sum.
	if got, want := ServeCost(p, pl), s.Cost(); got != want {
		t.Fatalf("ServeCost over view = %d, restricted evaluator = %d", got, want)
	}
	// Primaries outside the view must be rejected.
	bad := append([]int(nil), prims...)
	for i := 0; i < p.Sites(); i++ {
		if !view.Has(i) {
			bad[0] = i
			break
		}
	}
	if _, err := Restrict(p, view, bad); err == nil {
		t.Fatal("Restrict accepted a non-member primary")
	}
}

// TestRestrictSlicesProblemDist: whatever sequence of joins and leaves
// produced a view, the restricted problem's C(i,j) is the universe
// problem's at the view's rows and columns, entry for entry.
func TestRestrictSlicesProblemDist(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		p := genProblem(t, 9, 8, seed)
		prims := make([]int, p.Objects())
		pinned := make(map[int]bool)
		for k := range prims {
			prims[k] = p.Primary(k)
			pinned[prims[k]] = true
		}
		founding := make([]int, 0, len(pinned))
		for s := range pinned {
			founding = append(founding, s)
		}
		view, err := NewView(p.Sites(), founding)
		if err != nil {
			t.Fatalf("NewView: %v", err)
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		for step := 0; step < 40; step++ {
			site := rng.Intn(p.Sites())
			switch {
			case pinned[site]:
				continue
			case view.Has(site):
				view, err = view.Leave(site)
			default:
				view, err = view.Join(p.Sites(), site)
			}
			if err != nil {
				t.Fatalf("seed %d step %d site %d: %v", seed, step, site, err)
			}
			rp, err := Restrict(p, view, prims)
			if err != nil {
				t.Fatalf("seed %d step %d: Restrict: %v", seed, step, err)
			}
			for a, i := range view.Members {
				for b, j := range view.Members {
					if got, want := rp.Dist().At(a, b), p.Dist().At(i, j); got != want {
						t.Fatalf("seed %d %v: restricted C(%d,%d) = %d, problem C(%d,%d) = %d", seed, view, a, b, got, i, j, want)
					}
				}
			}
		}
	}
}

// TestSchemeInvertsFromScheme: a plan lifted from a scheme gives the scheme
// back, across the codec; a plan with no scheme form, or recorded for
// another problem, is an error rather than a mis-deployed scheme.
func TestSchemeInvertsFromScheme(t *testing.T) {
	p := genProblem(t, 6, 12, 1)
	s := sra.Run(p, sra.Options{}).Scheme
	data, err := FromScheme(s).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	back, err := pl.Scheme(p)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Bits().Equal(s.Bits()) || back.Cost() != s.Cost() {
		t.Fatalf("round trip changed the scheme: cost %d vs %d", back.Cost(), s.Cost())
	}

	moved := pl.Clone()
	moved.Primaries[0] = (p.Primary(0) + 1) % p.Sites()
	outside := pl.Clone()
	outside.Placement[0] = append(outside.Placement[0], p.Sites())
	overfull := pl.Clone()
	for k := range overfull.Placement {
		overfull.Placement[k] = append([]int(nil), pl.View.Members...)
	}
	for name, bad := range map[string]*Plan{"moved primary": moved, "site outside the universe": outside, "over capacity": overfull} {
		if _, err := bad.Scheme(p); err == nil {
			t.Errorf("%s: plan accepted as a scheme", name)
		}
	}
	if _, err := pl.Scheme(genProblem(t, 6, 13, 1)); err == nil {
		t.Error("plan of a 12-object problem accepted for 13 objects")
	}
}
