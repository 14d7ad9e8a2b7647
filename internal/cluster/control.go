package cluster

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"drp/internal/agra"
	"drp/internal/core"
	"drp/internal/gra"
	"drp/internal/membership"
	"drp/internal/plan"
	"drp/internal/spans"
	"drp/internal/sra"
	"drp/internal/store"
)

// ControlPlane is the monitor's membership-aware half: it consumes the
// view stream of a membership.Tracker and emits an epoch-numbered
// placement plan per view. Each plan is solved over the view-restricted
// sub-problem — a join or leave never re-solves the whole instance;
// instead the AGRA pipeline re-optimises only the objects the membership
// event can have affected (objects with demand at the changed site, plus
// — on a departure — objects placed or primaried there). Primaries on a
// departing site are handed to the surviving member nearest to it that
// still has primary capacity, deterministically. Emitted plans are
// journaled (when a journal is attached) before subscribers see them, so
// a coordinator restart replays intent, not guesswork.
//
// The data plane (netnode.Cluster.ApplyPlan) is deliberately decoupled:
// subscribers receive plans and decide when and how to realise them.
type ControlPlane struct {
	mu      sync.Mutex
	p       *core.Problem
	tracker *membership.Tracker
	journal *store.Journal
	opts    ControlOptions

	epoch   int        // plan epoch counter (plans emitted so far)
	prim    []int      // universe-indexed current primary assignment
	current *plan.Plan // last emitted plan
	subs    []func(*plan.Plan)
	err     error // first re-planning failure, sticky
}

// ControlOptions configure the control plane's solvers.
type ControlOptions struct {
	// Static configures the initial full solve over the founding view.
	Static sra.Options
	// Micro / Mini / MiniGenerations configure the AGRA re-optimisation
	// run on every membership event. Zero values take the paper defaults
	// (agra.DefaultParams, gra.DefaultParams, 5 generations); a negative
	// MiniGenerations disables the mini-GRA polish, leaving untouched
	// objects' placements bit-for-bit intact across a replan.
	Micro           agra.Params
	Mini            gra.Params
	MiniGenerations int
	// Journal, when non-nil, persists every emitted plan before
	// subscribers observe it.
	Journal *store.Journal
	// Tracer, when non-nil, records a span per control-plane decision:
	// a control.found root for the founding solve and a control.replan
	// root (with reassign and solve children) per membership event.
	Tracer *spans.Tracer
}

// NewControlPlane solves the founding view with the static greedy and
// returns a control plane holding plan epoch 1. Every universe primary
// must be a member of the founding view. Call Bind to start consuming
// membership events.
func NewControlPlane(p *core.Problem, tracker *membership.Tracker, opts ControlOptions) (*ControlPlane, error) {
	if p.Sites() != tracker.Universe() {
		return nil, fmt.Errorf("cluster: problem has %d sites, tracker universe %d", p.Sites(), tracker.Universe())
	}
	if opts.Micro.PopSize == 0 {
		opts.Micro = agra.DefaultParams()
	}
	if opts.Mini.PopSize == 0 {
		opts.Mini = gra.DefaultParams()
	}
	switch {
	case opts.MiniGenerations == 0:
		opts.MiniGenerations = 5
	case opts.MiniGenerations < 0:
		opts.MiniGenerations = 0
	}
	cp := &ControlPlane{
		p:       p,
		tracker: tracker,
		journal: opts.Journal,
		opts:    opts,
		prim:    make([]int, p.Objects()),
	}
	view := tracker.View()
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
	res := sra.Run(rp, opts.Static)
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

// Bind subscribes the control plane to its tracker: every subsequent
// membership event produces (and journals, and publishes) a new plan.
// A re-planning failure is sticky — later events are ignored and Err
// reports it — because emitting plans past a gap would desynchronise
// plan epochs from view epochs.
func (cp *ControlPlane) Bind() {
	cp.tracker.Subscribe(func(v membership.View) {
		cp.mu.Lock()
		failed := cp.err != nil
		cp.mu.Unlock()
		if failed {
			return
		}
		if _, err := cp.React(v); err != nil {
			cp.mu.Lock()
			cp.err = err
			cp.mu.Unlock()
		}
	})
}

// Err returns the first re-planning failure since Bind, if any.
func (cp *ControlPlane) Err() error {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.err
}

// Plan returns the last emitted plan.
func (cp *ControlPlane) Plan() *plan.Plan {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.current.Clone()
}

// Primaries returns the current universe-indexed primary assignment.
func (cp *ControlPlane) Primaries() []int {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return append([]int(nil), cp.prim...)
}

// Subscribe registers fn to receive every plan emitted after this call,
// in epoch order, synchronously from the membership event.
func (cp *ControlPlane) Subscribe(fn func(*plan.Plan)) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cp.subs = append(cp.subs, fn)
}

// React computes and emits the plan for a new view. Bind calls it from
// the tracker's event stream; tests may call it directly with a view
// obtained from JoinSite / LeaveSite.
func (cp *ControlPlane) React(v membership.View) (pl *plan.Plan, err error) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	root := cp.opts.Tracer.Root("control.replan")
	root.SetAttr("view", strconv.Itoa(v.Epoch))
	defer func() {
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
func (cp *ControlPlane) reassignPrimaries(v membership.View, departed []int) error {
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
func (cp *ControlPlane) solve(v membership.View, changed []int) (*plan.Plan, error) {
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
	}, cp.opts.Micro, cp.opts.Mini, cp.opts.MiniGenerations)
	if err != nil {
		return nil, err
	}
	return plan.Lift(v, res.Scheme), nil
}

// projectCurrent maps the current plan onto the restricted problem:
// placements intersect the view, and every (possibly reassigned) primary
// is forced in. This is the scheme AGRA adapts from.
func (cp *ControlPlane) projectCurrent(rp *core.Problem, v membership.View) (*core.Scheme, error) {
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

// emit stamps, journals and publishes a plan. Callers hold cp.mu (or are
// the constructor).
func (cp *ControlPlane) emit(pl *plan.Plan) error {
	cp.epoch++
	pl.Epoch = cp.epoch
	if err := pl.Validate(cp.p); err != nil {
		return fmt.Errorf("cluster: plan for view epoch %d invalid: %w", pl.View.Epoch, err)
	}
	if cp.journal != nil {
		data, err := pl.Marshal()
		if err != nil {
			return err
		}
		if err := cp.journal.RecordPlan(pl.Epoch, data); err != nil {
			return fmt.Errorf("cluster: journal plan epoch %d: %w", pl.Epoch, err)
		}
	}
	cp.current = pl.Clone()
	for _, fn := range cp.subs {
		fn(pl.Clone())
	}
	return nil
}
