package netnode

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"drp/internal/plan"
	"drp/internal/spans"
	"drp/internal/store"
)

// This file is the data-plane half of the control/data-plane split: a
// Cluster whose member set changes at runtime (Join/Leave) and whose
// placement moves through one migration engine (migrate), entered with a
// versioned plan (ApplyPlan), the journaled plan after a crash
// (ResumeMigration) or a scheme (Deploy). The node slice stays
// universe-indexed — a non-member site is simply a nil slot — so site
// indices on the wire never need translation.
//
// Invariants:
//   - every object always has a member holder and a member primary, so a
//     later joiner bootstraps with nothing the plan routes to and a
//     rejoining site is resynchronised by Join;
//   - plans are journaled before the first migration step executes, so a
//     coordinator restart resumes the remainder by diffing the journaled
//     target against what the sites actually hold (ResumeMigration);
//   - migration order is copies → promotes → routing refresh → drops:
//     replicas copy in before anything routes to them, and a departing
//     site keeps serving (drains) until the plan stops placing on it.

// ApplyReport accounts one run of the migration engine.
type ApplyReport struct {
	// Steps is the length of the migration step list the plan diff
	// produced; Completed counts the steps that executed.
	Steps, Completed int
	// MigrationNTC is the transfer cost of the completed copy steps —
	// exactly the a-priori sum of their Step.Cost fields.
	MigrationNTC int64
}

// errNotDrained reports a Leave of a site the current plan still places
// replicas (or a primary) on. Apply a plan that migrates the site empty
// first.
var errNotDrained = errors.New("netnode: site not drained")

// rewirePeers rebuilds the universe-indexed address table and pushes it
// to every live node. Absent sites keep an empty address, which dials
// fail on — exactly like a dead site. Nodes drop their idle links with
// the old table, and so does the coordinator.
func (c *Cluster) rewirePeers() {
	c.links.reset()
	addrs := make([]string, len(c.nodes))
	for i, n := range c.nodes {
		if n != nil {
			addrs[i] = n.Addr()
		}
	}
	for _, n := range c.nodes {
		if n != nil {
			n.setPeers(addrs)
		}
	}
}

// Members returns the current member sites, ascending.
func (c *Cluster) Members() []int {
	return append([]int(nil), c.view.Members...)
}

// Plan returns the currently deployed placement plan.
func (c *Cluster) Plan() *plan.Plan {
	if c.plan == nil {
		return nil
	}
	return c.plan.Clone()
}

// AttachJournal wires the coordinator journal in: every ApplyPlan records
// its target plan before executing a single step, and ResumeMigration
// finishes the remainder after a restart.
func (c *Cluster) AttachJournal(j *store.Journal) { c.journal = j }

// SetStepHook installs fn to run immediately before every migration step
// Deploy, ApplyPlan or ResumeMigration executes. The chaos tests use it
// to kill nodes at exact points of a migration.
func (c *Cluster) SetStepHook(fn func(plan.Step)) { c.stepHook = fn }

// Join adds a site to the cluster: boot its node (replaying its WAL in
// durable mode), rewire the address tables, and resynchronise its routing
// state with the deployed plan — the current primary of every object, a
// drop of any replica the plan no longer places at it (a rejoining former
// primary), and every object's replica set. The placement itself does
// not change: the control plane migrates replicas onto the joiner with a
// subsequent plan.
func (c *Cluster) Join(site int) (*Node, error) {
	view, err := c.view.Join(c.p.Sites(), site)
	if err != nil {
		return nil, err
	}
	node, err := c.bootNode(site)
	if err != nil {
		return nil, err
	}
	c.nodes[site] = node
	c.view = view
	c.rewirePeers()
	if err := c.syncJoined(site); err != nil {
		return node, fmt.Errorf("netnode: join sync for site %d: %w", site, err)
	}
	return node, nil
}

// syncJoined pushes the deployed plan's routing state to a joined site.
func (c *Cluster) syncJoined(site int) (err error) {
	node := c.nodes[site]
	root := c.tracer.Root("join.sync")
	root.SetPeer(site)
	defer func() {
		root.SetErr(err)
		root.Finish()
	}()
	for k := 0; k < c.p.Objects(); k++ {
		sp := c.plan.Primaries[k]
		if node.st.PrimaryOf(k) != sp {
			if err := c.command(site, message{Op: "primary", Object: k, Site: sp}, root); err != nil {
				return err
			}
		}
		if node.Holds(k) && !c.plan.Has(site, k) {
			// A rejoining site that was drained while away (memory mode
			// re-bootstraps its universe primaries; a crashed WAL can hold
			// pre-drain state).
			if err := c.command(site, message{Op: "drop", Object: k}, root); err != nil {
				return err
			}
		}
		if err := c.command(site, message{Op: "replicas", Object: k, Sites: c.plan.Placement[k]}, root); err != nil {
			return err
		}
	}
	return nil
}

// Leave removes a drained site: the deployed plan must place nothing on
// it and route no primary to it. The node shuts down cleanly (flushing
// its log, which in durable mode preserves its directory for a later
// rejoin) and its slot goes nil.
func (c *Cluster) Leave(site int) error {
	view, err := c.view.Leave(site)
	if err != nil {
		return err
	}
	for k := 0; k < c.p.Objects(); k++ {
		if c.plan.Primaries[k] == site {
			return fmt.Errorf("%w: site %d is still the primary of object %d", errNotDrained, site, k)
		}
		if c.plan.Has(site, k) {
			return fmt.Errorf("%w: site %d still holds object %d", errNotDrained, site, k)
		}
	}
	err = c.nodes[site].close()
	c.nodes[site] = nil
	c.view = view
	c.rewirePeers()
	return err
}

// ApplyPlan migrates the data plane from the deployed plan to next: the
// target is journaled first (when a journal is attached), then the
// ordered diff executes — copies along min-cost paths, primary
// promotions broadcast to every member, a routing refresh (each touched
// object's replica set to every member, its primary last), and finally
// the drops. Reads keep serving throughout: a site never loses a replica
// another site's replica set still names. Returns the migration
// accounting; on error the report covers the completed prefix and
// ResumeMigration (after the fault clears) finishes the remainder.
func (c *Cluster) ApplyPlan(next *plan.Plan) (*ApplyReport, error) {
	root := c.tracer.Root("plan.apply")
	root.SetAttr("epoch", strconv.Itoa(next.Epoch))
	return c.migrate(root, next.Clone(), false)
}

// migrate is the one migration engine behind Deploy, ApplyPlan and
// ResumeMigration: validate the target, diff it against the deployed plan
// — or, on resume, against what the sites actually hold — journal it, run
// the ordered steps under root and adopt the target (which the cluster
// then owns) as the deployed plan. It finishes root. An empty diff sends
// nothing.
func (c *Cluster) migrate(root *spans.Span, target *plan.Plan, resume bool) (rep *ApplyReport, err error) {
	defer func() {
		root.SetErr(err)
		root.Finish()
	}()
	if err := target.Validate(c.p); err != nil {
		return nil, err
	}
	for _, m := range target.View.Members {
		if !c.view.Has(m) {
			return nil, fmt.Errorf("netnode: plan epoch %d places on site %d which has not joined", target.Epoch, m)
		}
	}
	from, touched := c.plan, make(map[int]bool)
	if resume {
		// The interrupted run may have fully migrated objects that the
		// remainder diff no longer touches, leaving their routing records at
		// the pre-migration state — refresh everything, not just the
		// remainder's objects.
		from = c.actualPlan()
		for k := range target.Placement {
			touched[k] = true
		}
	} else {
		// A crash between a copy and the routing refresh leaves a holder its
		// primary does not broadcast to. The deployed plan, read back from
		// the holdings at boot, cannot show that; the primary's replica set
		// does. The refresh writes the primary's record last, so once it
		// matches, every member's does too.
		for k, sites := range from.Placement {
			if !slices.Equal(c.nodes[from.Primaries[k]].st.Replicas(k), sites) {
				touched[k] = true
			}
		}
	}
	steps, err := plan.Diff(from, target, c.p)
	if err != nil {
		return nil, err
	}
	for _, s := range steps {
		touched[s.Object] = true
	}
	if c.journal != nil && !resume {
		data, err := target.Marshal()
		if err != nil {
			return nil, err
		}
		if err := c.journal.RecordPlan(target.Epoch, data); err != nil {
			return nil, fmt.Errorf("netnode: journal plan: %w", err)
		}
	}
	rep = &ApplyReport{Steps: len(steps)}
	if err := c.runSteps(steps, touched, from, target, rep, root); err != nil {
		return rep, err
	}
	c.plan = target
	return rep, nil
}

// runSteps executes an ordered step list. The list arrives phase-ordered
// (copies, promotes, drops); the routing refresh for every touched object
// runs after the promotes so no drop happens while a replica set still
// names the dropping site.
func (c *Cluster) runSteps(steps []plan.Step, touched map[int]bool, old, next *plan.Plan, rep *ApplyReport, parent *spans.Span) error {
	refreshed := false
	for _, s := range steps {
		if s.Kind == plan.Drop && !refreshed {
			if err := c.refreshRouting(touched, next, parent); err != nil {
				return err
			}
			refreshed = true
		}
		if c.stepHook != nil {
			c.stepHook(s)
		}
		ss := parent.Child("plan.step")
		ss.SetAttr("kind", s.Kind.String())
		ss.SetPeer(s.Site)
		ss.SetObject(s.Object)
		if err := c.runStep(s, old, ss); err != nil {
			ss.SetErr(err)
			ss.Finish()
			return err
		}
		rep.Completed++
		if s.Kind == plan.Copy {
			rep.MigrationNTC += s.Cost
			// A copy's transfer cost is known a priori (the min-cost source
			// the diff chose); attribute it to the step span.
			ss.SetNTC(s.Cost)
		}
		ss.Finish()
	}
	if !refreshed {
		return c.refreshRouting(touched, next, parent)
	}
	return nil
}

func (c *Cluster) runStep(s plan.Step, old *plan.Plan, parent *spans.Span) error {
	switch s.Kind {
	case plan.Copy:
		// The new replica adopts the current primary's version: a copy is
		// a fetch of the latest acknowledged write.
		sp := old.Primaries[s.Object]
		var version int64
		if node := c.nodes[sp]; node != nil {
			version = node.Version(s.Object)
		}
		return c.command(s.Site, message{Op: "place", Object: s.Object, Version: version}, parent)
	case plan.Promote:
		// Every member learns the new primary, so writes route correctly
		// no matter where they originate.
		for _, m := range c.view.Members {
			if err := c.command(m, message{Op: "primary", Object: s.Object, Site: s.Site}, parent); err != nil {
				return err
			}
		}
		return nil
	case plan.Drop:
		return c.command(s.Site, message{Op: "drop", Object: s.Object}, parent)
	default:
		return fmt.Errorf("netnode: unknown step kind %v", s.Kind)
	}
}

// refreshRouting pushes the next plan's replica set of every touched
// object to every member, the object's primary last: the primary's record
// is the commit point migrate checks after a restart, so it may only
// match the plan once every other member's does.
func (c *Cluster) refreshRouting(touched map[int]bool, next *plan.Plan, parent *spans.Span) error {
	rs := parent.Child("plan.refresh")
	defer rs.Finish()
	objs := make([]int, 0, len(touched))
	for k := range touched {
		objs = append(objs, k)
	}
	sort.Ints(objs)
	for _, k := range objs {
		msg, sp := message{Op: "replicas", Object: k, Sites: next.Placement[k]}, next.Primaries[k]
		for _, m := range c.view.Members {
			if m == sp {
				continue
			}
			if err := c.command(m, msg, rs); err != nil {
				rs.SetErr(err)
				return err
			}
		}
		if err := c.command(sp, msg, rs); err != nil {
			rs.SetErr(err)
			return err
		}
	}
	return nil
}

// actualPlan reconstructs the placement the data plane actually holds:
// replica sets from the members' (possibly just replayed) holdings and
// primaries from their routing records. Where members disagree on a
// primary — a crash landed mid-promotion — the lowest recorded site is
// kept: deterministic, and different from at least one member's record,
// which forces the next diff to re-broadcast the promotion (the "primary"
// op is idempotent).
func (c *Cluster) actualPlan() *plan.Plan {
	pl := &plan.Plan{
		View:      plan.View{Members: append([]int(nil), c.view.Members...)},
		Primaries: make([]int, c.p.Objects()),
		Placement: make([][]int, c.p.Objects()),
	}
	for k := range pl.Placement {
		sp := -1
		for _, m := range c.view.Members {
			st := c.nodes[m].st
			if st.Holds(k) {
				pl.Placement[k] = append(pl.Placement[k], m)
			}
			if v := st.PrimaryOf(k); sp < 0 || v < sp {
				sp = v
			}
		}
		pl.Primaries[k] = sp
	}
	return pl
}

// ResumeMigration finishes a migration interrupted by a crash: the
// journaled target plan is diffed against what the members actually hold
// and the remainder executes. Returns (report, resumed): resumed is false
// when no journal is attached, the journal holds no plan, or the target
// is rejected before a step runs. The completed prefix of the original
// run is never re-executed or re-accounted — the diff starts from the
// actual holdings — and a fully realised target still has its routing
// state re-asserted and is adopted as the deployed plan (epoch, view).
func (c *Cluster) ResumeMigration() (*ApplyReport, bool, error) {
	if c.journal == nil {
		return nil, false, nil
	}
	_, data, ok := c.journal.LatestPlan()
	if !ok {
		return nil, false, nil
	}
	target, err := plan.Unmarshal(data)
	if err != nil {
		return nil, false, fmt.Errorf("netnode: journaled plan: %w", err)
	}
	root := c.tracer.Root("plan.resume")
	root.SetAttr("epoch", strconv.Itoa(target.Epoch))
	rep, err := c.migrate(root, target, true)
	if rep == nil {
		return nil, false, fmt.Errorf("netnode: journaled plan: %w", err)
	}
	return rep, true, err
}
