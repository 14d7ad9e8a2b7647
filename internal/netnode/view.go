package netnode

import (
	"errors"
	"fmt"
	"slices"
	"strconv"

	"drp/internal/plan"
	"drp/internal/spans"
	"drp/internal/store"
)

// This file is the data-plane half of the control/data-plane split: a
// Cluster whose member set changes at runtime (Join/Leave) and whose
// placement moves through one migration engine (migrate), entered with a
// versioned plan (ApplyPlan), the journaled plan after a crash
// (ResumeMigration), a scheme (Deploy) or the deployed plan when a site
// joins (Join). The node slice stays universe-indexed — a non-member site
// is simply a nil slot — so site indices on the wire never need
// translation.
//
// Invariants:
//   - every migration starts from what the members actually hold and
//     record, read afresh, and succeeds only once every member's
//     holdings, replica set R_k and primary SP_k equal the target and
//     every holder is at its primary's version: a failed migration
//     leaves nothing the next one cannot see;
//   - every object always has a member holder and a member primary, so a
//     later joiner bootstraps with nothing the plan routes to;
//   - plans are journaled before the first migration step executes, so a
//     coordinator restart resumes the journaled target (ResumeMigration);
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

// AttachJournal wires the coordinator journal in: every migration records
// its target plan before executing a single step, and ResumeMigration
// finishes the remainder after a restart.
func (c *Cluster) AttachJournal(j *store.Journal) { c.journal = j }

// SetStepHook installs fn to run immediately before every migration step
// Deploy, ApplyPlan, ResumeMigration or Join executes. The chaos tests use it
// to kill nodes at exact points of a migration.
func (c *Cluster) SetStepHook(fn func(plan.Step)) { c.stepHook = fn }

// Join adds a site to the cluster: boot its node (replaying its WAL in
// durable mode), rewire the address tables, and migrate to the deployed
// plan, which converges the joiner's records and drops what a rejoiner
// still holds from before its drain; a later plan places onto the joiner.
// After a failed migration that is the last plan adopted, so a join rolls
// back what the failed run moved; ResumeMigration redoes the journaled
// target.
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
	root := c.tracer.Root("join.sync")
	root.SetPeer(site)
	if _, err := c.migrate(root, c.plan); err != nil {
		return node, fmt.Errorf("netnode: join sync for site %d: %w", site, err)
	}
	return node, nil
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

// ApplyPlan migrates the data plane to next: the target is journaled
// first (when a journal is attached), then the ordered diff from what the
// members hold executes — min-cost copies, promotions broadcast to every
// member, a refresh of every record that differs from next, the drops.
// Reads keep serving throughout. On error the report covers the completed
// prefix, and the next migration starts from what that prefix left.
func (c *Cluster) ApplyPlan(next *plan.Plan) (*ApplyReport, error) {
	root := c.tracer.Root("plan.apply")
	root.SetAttr("epoch", strconv.Itoa(next.Epoch))
	return c.migrate(root, next.Clone())
}

// migrate is the one migration engine behind Deploy, ApplyPlan,
// ResumeMigration and Join: validate the target, read every member's
// records, diff the holdings against the target, journal it, run the
// ordered steps under root and adopt the target (which the cluster then
// owns) as the deployed plan. It finishes root. A target the members
// already hold and record sends nothing.
func (c *Cluster) migrate(root *spans.Span, target *plan.Plan) (rep *ApplyReport, err error) {
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
	from, d := c.holdings(target)
	steps, err := plan.Diff(from, target, c.p)
	if err != nil {
		return nil, err
	}
	// An object with a step has its replica set refreshed at every member;
	// a Promote step broadcasts the primary itself.
	for _, s := range steps {
		d.replicas[s.Object] = c.view.Members
		if s.Kind == plan.Promote {
			d.primary[s.Object] = nil
		}
	}
	if c.journal != nil {
		data, err := target.Marshal()
		if err != nil {
			return nil, err
		}
		if err := c.journal.RecordPlan(target.Epoch, data); err != nil {
			return nil, fmt.Errorf("netnode: journal plan: %w", err)
		}
	}
	rep = &ApplyReport{Steps: len(steps)}
	if err := c.runSteps(steps, d, from, target, rep, root); err != nil {
		return rep, err
	}
	c.plan = target
	return rep, nil
}

// runSteps executes an ordered step list. The list arrives phase-ordered
// (copies, promotes, drops); the routing refresh runs after the promotes
// so no drop happens while a replica set still names the dropping site.
func (c *Cluster) runSteps(steps []plan.Step, d drift, old, next *plan.Plan, rep *ApplyReport, parent *spans.Span) error {
	refreshed := false
	for _, s := range steps {
		if s.Kind == plan.Drop && !refreshed {
			if err := c.refreshRouting(d, next, parent); err != nil {
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
		return c.refreshRouting(d, next, parent)
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

// drift lists, per object, the members whose routing records differ from
// a migration's target — R_k in replicas, SP_k in primary — and so the
// records the routing refresh sends them.
type drift struct{ replicas, primary [][]int }

// refreshRouting sends every member the routing records of next that d
// lists for it, object by object, the object's primary last.
func (c *Cluster) refreshRouting(d drift, next *plan.Plan, parent *spans.Span) (err error) {
	rs := parent.Child("plan.refresh")
	defer func() {
		rs.SetErr(err)
		rs.Finish()
	}()
	for k, sites := range next.Placement {
		sp := next.Primaries[k]
		refresh := func(m int) error {
			if slices.Contains(d.primary[k], m) {
				if err := c.command(m, message{Op: "primary", Object: k, Site: sp}, rs); err != nil {
					return err
				}
			}
			if slices.Contains(d.replicas[k], m) {
				return c.command(m, message{Op: "replicas", Object: k, Sites: sites}, rs)
			}
			return nil
		}
		for _, m := range c.view.Members {
			if m != sp {
				if err := refresh(m); err != nil {
					return err
				}
			}
		}
		if err := refresh(sp); err != nil {
			return err
		}
	}
	return nil
}

// holdings reads every member's records once, each member's under one
// store lock, into the placement the data plane actually holds: replica
// sets from the holdings and primaries from the routing records. Where
// members disagree on a primary (a crash mid-promotion, a rejoiner's old
// record) a Boyer–Moore vote over the members in ascending order picks the
// majority's, so a copy takes its version from the site most writes went
// to. Against a non-nil target it also lists the members whose records
// differ from it, and a replica whose version differs from the primary's
// (a copy the primary's R_k did not name yet, a rejoiner's pre-drain
// replica) counts as held only where the target drops it: where the target
// keeps it, the diff copies it afresh.
func (c *Cluster) holdings(target *plan.Plan) (*plan.Plan, drift) {
	n, sites := c.p.Objects(), c.p.Sites()
	pl := &plan.Plan{
		View:      plan.View{Members: append([]int(nil), c.view.Members...)},
		Primaries: make([]int, n),
		Placement: make([][]int, n),
	}
	d := drift{replicas: make([][]int, n), primary: make([][]int, n)}
	votes := make([]int, n)
	versions := make([]int64, n*sites) // [k*sites+m]: site m's version of k
	for _, m := range c.view.Members {
		c.nodes[m].st.Records(func(k int, holds bool, ver int64, sp int, replicas []int) {
			if holds {
				pl.Placement[k] = append(pl.Placement[k], m)
				versions[k*sites+m] = ver
			}
			switch {
			case votes[k] == 0:
				pl.Primaries[k], votes[k] = sp, 1
			case pl.Primaries[k] == sp:
				votes[k]++
			default:
				votes[k]--
			}
			if target == nil {
				return
			}
			if sp != target.Primaries[k] {
				d.primary[k] = append(d.primary[k], m)
			}
			if !slices.Equal(replicas, target.Placement[k]) {
				d.replicas[k] = append(d.replicas[k], m)
			}
		})
	}
	for k, held := range pl.Placement {
		if sp := pl.Primaries[k]; target != nil && slices.Contains(held, sp) {
			pl.Placement[k] = slices.DeleteFunc(held, func(m int) bool {
				return versions[k*sites+m] != versions[k*sites+sp] && target.Has(m, k)
			})
		}
	}
	return pl, d
}

// ResumeMigration finishes a migration interrupted by a crash by
// migrating to the journaled target plan. resumed is false when no journal
// is attached, it holds no plan, or the target is rejected before a step
// runs. Only the remainder runs; a realised target sends nothing and is
// adopted as the deployed plan (epoch, view).
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
	rep, err := c.migrate(root, target)
	if rep == nil {
		return nil, false, fmt.Errorf("netnode: journaled plan: %w", err)
	}
	return rep, true, err
}
