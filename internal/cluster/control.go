package cluster

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"

	"drp/internal/agra"
	"drp/internal/core"
	"drp/internal/gra"
	"drp/internal/plan"
	"drp/internal/spans"
	"drp/internal/sra"
)

// ControlPlane is the monitor's membership-aware half: the coordinator
// calls React with each new membership view and gets back the next
// epoch-numbered placement plan. Each plan is solved over the
// view-restricted sub-problem — a join or leave never re-solves the whole
// instance; instead the AGRA pipeline re-optimises only the objects the
// membership event can have affected (objects with demand at the changed
// site, plus — on a departure — objects placed or primaried there).
// Primaries on a departing site are handed to the surviving member
// nearest to it that still has primary capacity, deterministically.
//
// The control plane holds no journal and drives no data plane: the caller
// realises each plan (netnode.Cluster.ApplyPlan), whose coordinator
// journal records it before the first migration step.
type ControlPlane struct {
	mu   sync.Mutex
	p    *core.Problem
	opts ControlOptions

	epoch   int        // plan epoch counter (plans emitted so far)
	prim    []int      // universe-indexed current primary assignment
	current *plan.Plan // last emitted plan
}

// ControlOptions configure the control plane. The founding solve is SRA
// and every membership event re-optimises with AGRA, both at the paper's
// parameters.
type ControlOptions struct {
	// MiniGenerations is the mini-GRA polish after each AGRA
	// re-optimisation: zero takes the paper's 5 generations, and a negative
	// value disables the polish, leaving untouched objects' placements
	// bit-for-bit intact across a replan.
	MiniGenerations int
	// Tracer, when non-nil, records a span per control-plane decision:
	// a control.found root for the founding solve and a control.replan
	// root (with reassign and solve children) per membership event.
	Tracer *spans.Tracer
}

// NewControlPlane founds the view of the given members (plan.NewView
// over p's sites), solves it with the static greedy and returns a control
// plane holding plan epoch 1 over view epoch 0. Every universe primary
// must be a member. Derive later views from Plan().View with Join and
// Leave and hand each to React.
func NewControlPlane(p *core.Problem, members []int, opts ControlOptions) (*ControlPlane, error) {
	view, err := plan.NewView(p.Sites(), members)
	if err != nil {
		return nil, err
	}
	switch {
	case opts.MiniGenerations == 0:
		opts.MiniGenerations = 5
	case opts.MiniGenerations < 0:
		opts.MiniGenerations = 0
	}
	cp := &ControlPlane{
		p:    p,
		opts: opts,
		prim: make([]int, p.Objects()),
	}
	for k := 0; k < p.Objects(); k++ {
		cp.prim[k] = p.Primary(k)
		if !view.Has(cp.prim[k]) {
			return nil, fmt.Errorf("cluster: founding view misses primary site %d of object %d", cp.prim[k], k)
		}
	}
	rp, err := plan.Restrict(p, view, cp.prim)
	if err != nil {
		return nil, err
	}
	root := opts.Tracer.Root("control.found")
	res := sra.Run(rp, sra.Options{})
	pl := plan.Lift(view, res.Scheme)
	if err := cp.emit(pl); err != nil {
		root.SetErr(err)
		root.Finish()
		return nil, err
	}
	root.SetAttr("epoch", strconv.Itoa(pl.Epoch))
	root.SetAttr("members", strconv.Itoa(len(view.Members)))
	root.Finish()
	return cp, nil
}

// Plan returns the last emitted plan.
func (cp *ControlPlane) Plan() *plan.Plan {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.current.Clone()
}

// React computes and emits the plan for a new view, one membership event
// after the current plan's. On an error nothing changes: the current plan
// and primary assignment stay as they were.
func (cp *ControlPlane) React(v plan.View) (pl *plan.Plan, err error) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	root := cp.opts.Tracer.Root("control.replan")
	root.SetAttr("view", strconv.Itoa(v.Epoch))
	prim := slices.Clone(cp.prim)
	defer func() {
		if err != nil {
			cp.prim = prim
		}
		root.SetErr(err)
		root.Finish()
	}()
	joined, departed := memberDelta(cp.current.View.Members, v.Members)
	rs := root.Child("control.reassign")
	rs.SetAttr("departed", strconv.Itoa(len(departed)))
	if err := cp.reassignPrimaries(v, departed); err != nil {
		rs.SetErr(err)
		rs.Finish()
		return nil, err
	}
	rs.Finish()
	changed := cp.changedObjects(joined, departed)
	ss := root.Child("control.solve")
	ss.SetAttr("changed", strconv.Itoa(len(changed)))
	next, err := cp.solve(v, changed)
	if err != nil {
		ss.SetErr(err)
		ss.Finish()
		return nil, err
	}
	ss.Finish()
	if err := cp.emit(next); err != nil {
		return nil, err
	}
	root.SetAttr("epoch", strconv.Itoa(next.Epoch))
	return next.Clone(), nil
}

// memberDelta splits two sorted member lists into joined and departed
// sites.
func memberDelta(old, next []int) (joined, departed []int) {
	i, j := 0, 0
	for i < len(old) || j < len(next) {
		switch {
		case i >= len(old):
			joined = append(joined, next[j])
			j++
		case j >= len(next):
			departed = append(departed, old[i])
			i++
		case old[i] == next[j]:
			i++
			j++
		case old[i] < next[j]:
			departed = append(departed, old[i])
			i++
		default:
			joined = append(joined, next[j])
			j++
		}
	}
	return joined, departed
}

// reassignPrimaries hands every primary on a departing site to the
// nearest surviving member with spare primary capacity. Distance is the
// problem's C(i,j) between the old and candidate primary; ties break on
// the lower site index, so the assignment is deterministic.
func (cp *ControlPlane) reassignPrimaries(v plan.View, departed []int) error {
	gone := make(map[int]bool, len(departed))
	for _, s := range departed {
		gone[s] = true
	}
	// Primary load per member under the current assignment.
	load := make(map[int]int64)
	for k, sp := range cp.prim {
		load[sp] += cp.p.Size(k)
	}
	// Deterministic object order: ascending object index.
	for k, sp := range cp.prim {
		if !gone[sp] {
			continue
		}
		best := -1
		var bestDist int64
		for _, m := range v.Members {
			if load[m]+cp.p.Size(k) > cp.p.Capacity(m) {
				continue
			}
			d := cp.p.Cost(sp, m)
			if best < 0 || d < bestDist {
				best, bestDist = m, d
			}
		}
		if best < 0 {
			return fmt.Errorf("cluster: no surviving member has capacity for the primary of object %d (size %d) after site %d left", k, cp.p.Size(k), sp)
		}
		load[sp] -= cp.p.Size(k)
		load[best] += cp.p.Size(k)
		cp.prim[k] = best
	}
	return nil
}

// changedObjects lists the objects a membership event can affect: any
// object with read or write demand at a joined or departed site, and —
// for departures — any object the current plan places or primaries
// there. Everything else keeps its placement through the restricted
// re-solve.
func (cp *ControlPlane) changedObjects(joined, departed []int) []int {
	set := make(map[int]bool)
	mark := func(site int, withPlacement bool) {
		for k := 0; k < cp.p.Objects(); k++ {
			if cp.p.Reads(site, k) > 0 || cp.p.Writes(site, k) > 0 {
				set[k] = true
			}
			if withPlacement && (cp.current.Has(site, k) || cp.current.Primaries[k] == site) {
				set[k] = true
			}
		}
	}
	for _, s := range joined {
		mark(s, false)
	}
	for _, s := range departed {
		mark(s, true)
	}
	// Reassigned primaries are changed by definition.
	for k := range cp.prim {
		if cp.prim[k] != cp.current.Primaries[k] {
			set[k] = true
		}
	}
	changed := make([]int, 0, len(set))
	for k := range set {
		changed = append(changed, k)
	}
	sort.Ints(changed)
	return changed
}

// solve re-optimises the changed objects over the view-restricted
// problem with the AGRA pipeline, seeded with the current plan projected
// onto the view, and lifts the result back to a universe plan.
func (cp *ControlPlane) solve(v plan.View, changed []int) (*plan.Plan, error) {
	rp, err := plan.Restrict(cp.p, v, cp.prim)
	if err != nil {
		return nil, err
	}
	cur, err := cp.projectCurrent(rp, v)
	if err != nil {
		return nil, err
	}
	if len(changed) == 0 {
		pl := plan.Lift(v, cur)
		return pl, nil
	}
	res, err := agra.Adapt(agra.Input{
		Problem: rp,
		Current: cur,
		Changed: changed,
	}, agra.DefaultParams(), gra.DefaultParams(), cp.opts.MiniGenerations)
	if err != nil {
		return nil, err
	}
	return plan.Lift(v, res.Scheme), nil
}

// projectCurrent maps the current plan onto the restricted problem:
// placements intersect the view, and every (possibly reassigned) primary
// is forced in. This is the scheme AGRA adapts from.
func (cp *ControlPlane) projectCurrent(rp *core.Problem, v plan.View) (*core.Scheme, error) {
	idx := v.Index()
	s := core.NewScheme(rp)
	for k := 0; k < cp.p.Objects(); k++ {
		for _, site := range cp.current.Placement[k] {
			d, ok := idx[site]
			if !ok || s.Has(d, k) {
				continue
			}
			if err := s.Add(d, k); err != nil {
				// Capacity pressure from forced primaries: skip the replica;
				// the re-solve decides what fits.
				continue
			}
		}
	}
	return s, nil
}

// emit stamps a plan with the next plan epoch, validates it and adopts
// it as the current plan. Callers hold cp.mu (or are the constructor).
func (cp *ControlPlane) emit(pl *plan.Plan) error {
	pl.Epoch = cp.epoch + 1
	if err := pl.Validate(cp.p); err != nil {
		return fmt.Errorf("cluster: plan for view epoch %d invalid: %w", pl.View.Epoch, err)
	}
	cp.epoch = pl.Epoch
	cp.current = pl.Clone()
	return nil
}
