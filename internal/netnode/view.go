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
// (ResumeMigration), a scheme (Deploy) or the last adopted target when a
// site joins (Join). Every decision about the current data plane —
// a migration's diff, Reconcile, Leave, Scheme — reads the members' own
// records (holdings); the adopted target serves only Join, Deploy's epochs
// and Plan. The node slice stays universe-indexed — a non-member site
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
//     site keeps serving (drains) until the plan stops placing on it;
//   - a member stops naming itself an object's primary before any other
//     member starts, so no cut leaves two members accepting its writes;
//   - a migration sends each member at most one batch command per wave,
//     so its round trips grow with the members, not with objects ×
//     members.

// ApplyReport accounts one run of the migration engine.
type ApplyReport struct {
	// Steps is the length of the migration step list the plan diff
	// produced; Completed counts the steps the sites acknowledged.
	Steps, Completed int
	// MigrationNTC is the transfer cost of the completed copy steps —
	// exactly the a-priori sum of their Step.Cost fields.
	MigrationNTC int64
}

// errNotDrained reports a Leave of a site that still holds a replica, or
// that some member's record still names as an object's primary. Apply a
// plan that migrates the site empty first.
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

// Plan returns the last adopted migration target: the plan the last
// successful migration realised, or the placement read back at boot. After
// a failed migration the members may hold something else; Scheme reads
// what they hold.
func (c *Cluster) Plan() *plan.Plan { return c.target.Clone() }

// AttachJournal wires the coordinator journal in: every migration records
// its target plan before executing a single step, and ResumeMigration
// finishes the remainder after a restart.
func (c *Cluster) AttachJournal(j *store.Journal) { c.journal = j }

// SetStepHook installs fn to run once for every migration step Deploy,
// ApplyPlan, ResumeMigration or Join executes, immediately before the
// batch command that carries the step is sent — for the steps one command
// carries, in step order, all before it is sent. A promotion is carried
// to every member; its hook runs before the first command that carries
// it, which goes to the member that names itself the primary it moves
// away from when there is one. The chaos tests use it to kill nodes at
// exact points of a migration.
func (c *Cluster) SetStepHook(fn func(plan.Step)) { c.stepHook = fn }

// Join adds a site to the cluster: boot its node (replaying its WAL in
// durable mode), rewire the address tables, and migrate to the last
// adopted target, which converges the joiner's records and drops what a
// rejoiner still holds from before its drain; a later plan places onto
// the joiner.
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
	if _, err := c.migrate(root, c.target); err != nil {
		return node, fmt.Errorf("netnode: join sync for site %d: %w", site, err)
	}
	return node, nil
}

// Leave removes a drained site: it must hold nothing, and no member's
// record may name it an object's primary. The node shuts down cleanly
// (flushing its log, which in durable mode preserves its directory for a
// later rejoin) and its slot goes nil.
func (c *Cluster) Leave(site int) error {
	view, err := c.view.Leave(site)
	if err != nil {
		return err
	}
	held, rec := c.holdings(nil)
	for k := range held.Placement {
		for _, m := range c.view.Members {
			if rec.routes[k*rec.sites+m] == site {
				return fmt.Errorf("%w: site %d's record names site %d the primary of object %d", errNotDrained, m, site, k)
			}
		}
		if slices.Contains(held.Placement[k], site) {
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
// ordered steps under root as waves of batch commands (runSteps) and
// adopt the target (which the cluster then owns). It
// finishes root. A target the members already hold and record sends
// nothing; on error the report counts the steps whose records the sites
// acknowledged.
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
	from, rec := c.holdings(target)
	steps, err := plan.Diff(from, target, c.p)
	if err != nil {
		return nil, err
	}
	// An object with a step has its replica set refreshed at every member;
	// a Promote step broadcasts the primary itself.
	for _, s := range steps {
		rec.replicas[s.Object] = c.view.Members
		if s.Kind == plan.Promote {
			rec.primary[s.Object] = nil
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
	if err := c.runSteps(steps, rec, from, target, rep, root); err != nil {
		return rep, err
	}
	c.target = target
	return rep, nil
}

// runSteps executes the phase-ordered step list as six waves: the copies
// grouped by destination, the promotions to the members that name
// themselves a promoted object's primary, the promotions to every other
// member, the refresh of every member's records for the objects it is not
// primary of, the refresh of each primary's own records — so an object's
// primary records it last — and the drops grouped by site. Each wave
// sends every member at most one batch (more only where its records
// overflow a line), serially in member order, so span IDs and fault-gate
// draws come in the same order on every run. No site drops a replica
// while another's replica set still names it. rec holds the members'
// records the step list was diffed from.
func (c *Cluster) runSteps(steps []plan.Step, rec *records, old, next *plan.Plan, rep *ApplyReport, root *spans.Span) error {
	members := c.view.Members
	// bySite sends each member the steps of one kind at it, one record per
	// step.
	bySite := func(kind plan.StepKind, record func(plan.Step) message) error {
		for _, m := range members {
			mine := stepsAt(steps, kind, m)
			records := make([]message, len(mine))
			for i, s := range mine {
				records[i] = record(s)
			}
			acked, err := c.send(m, kind.String(), records, mine, root)
			rep.count(acked)
			if err != nil {
				return err
			}
		}
		return nil
	}
	err := bySite(plan.Copy, func(s plan.Step) message {
		// The new replica adopts the current primary's version: a copy is
		// a fetch of the latest acknowledged write.
		var version int64
		if node := c.nodes[old.Primaries[s.Object]]; node != nil {
			version = node.Version(s.Object)
		}
		return message{Op: "place", Object: s.Object, Version: version}
	})
	if err != nil {
		return err
	}

	// Every member learns each new primary, so writes route correctly no
	// matter where they originate. A member whose record names itself the
	// primary an object moves away from learns it first, in a wave of its
	// own: a cut anywhere then leaves at most one member naming itself
	// SP_k — none where it falls between the waves, and its writes are
	// refused until the next migration — never two that both accept
	// writes. A step rides the first command that carries its record, and
	// completes once every member has acknowledged it.
	promotes := stepsAt(steps, plan.Promote, -1)
	carried := make([]bool, len(promotes))
	for _, wave := range []string{"demote", "promote"} {
		for _, m := range members {
			var records, later []message
			var ride []plan.Step
			for i, s := range promotes {
				r := message{Op: "primary", Object: s.Object, Site: s.Site}
				switch demoted := rec.routes[s.Object*rec.sites+m] == m && m != s.Site; {
				case demoted != (wave == "demote"): // the other wave's record
				case carried[i]:
					later = append(later, r)
				default:
					carried[i] = true
					records, ride = append(records, r), append(ride, s)
				}
			}
			if _, err := c.send(m, wave, append(records, later...), ride, root); err != nil {
				return err
			}
		}
	}
	rep.count(promotes)

	// The records rec's drift lists for a member: next's SP_k where the
	// member's differs, next's R_k where the object had a step or the
	// member's R_k differs. send keeps no record, so one buffer serves
	// every command.
	var records []message
	for _, wave := range []string{"refresh", "refresh.primary"} {
		for _, m := range members {
			records = records[:0]
			for k, sites := range next.Placement {
				sp := next.Primaries[k]
				if (sp == m) != (wave == "refresh.primary") {
					continue
				}
				if slices.Contains(rec.primary[k], m) {
					records = append(records, message{Op: "primary", Object: k, Site: sp})
				}
				if slices.Contains(rec.replicas[k], m) {
					records = append(records, message{Op: "replicas", Object: k, Sites: sites})
				}
			}
			if _, err := c.send(m, wave, records, nil, root); err != nil {
				return err
			}
		}
	}

	return bySite(plan.Drop, func(s plan.Step) message { return message{Op: "drop", Object: s.Object} })
}

// stepsAt returns the steps of one kind, in list order, whose site is
// site (any site when site < 0).
func stepsAt(steps []plan.Step, kind plan.StepKind, site int) []plan.Step {
	var out []plan.Step
	for _, s := range steps {
		if s.Kind == kind && (site < 0 || s.Site == site) {
			out = append(out, s)
		}
	}
	return out
}

// count adds acknowledged steps to the report: the completed count and
// the a-priori transfer cost of the copies among them.
func (rep *ApplyReport) count(acked []plan.Step) {
	for _, s := range acked {
		rep.Completed++
		if s.Kind == plan.Copy {
			rep.MigrationNTC += s.Cost
		}
	}
}

// send delivers records to site in order, as one batch command per line
// of at most maxLineBytes, each under its own plan.command span. steps,
// when non-nil, are the steps the records carry, one per record: the step
// hook runs for each, in order, immediately before the command that
// carries it is sent, and each gets a plan.step span under that command
// holding its copy cost once acknowledged. send returns the steps the
// replies acknowledged: the site applies a batch's records in order and
// stops at the first it rejects.
func (c *Cluster) send(site int, wave string, records []message, steps []plan.Step, parent *spans.Span) ([]plan.Step, error) {
	var acked []plan.Step
	for len(records) > 0 {
		n := fitLine(records)
		carried := steps[:min(n, len(steps))]
		steps = steps[len(carried):]
		cs := parent.Child("plan.command")
		cs.SetAttr("wave", wave)
		cs.SetPeer(site)
		var ss []*spans.Span
		for _, s := range carried {
			if c.stepHook != nil {
				c.stepHook(s)
			}
			st := cs.Child("plan.step")
			st.SetAttr("kind", s.Kind.String())
			st.SetPeer(s.Site)
			st.SetObject(s.Object)
			ss = append(ss, st)
		}
		applied, err := c.batch(site, records[:n], cs)
		for i, s := range carried {
			if i < applied {
				acked = append(acked, s)
				if s.Kind == plan.Copy {
					// A copy's transfer cost is known a priori (the min-cost
					// source the diff chose); attribute it to the step span.
					ss[i].SetNTC(s.Cost)
				}
			} else {
				ss[i].SetErr(err)
			}
			ss[i].Finish()
		}
		cs.SetErr(err)
		cs.Finish()
		if err != nil {
			return acked, err
		}
		records = records[n:]
	}
	return acked, nil
}

// batch sends records to site as one batch command and returns how many
// the site applied: all of them, or those before the one it rejected.
func (c *Cluster) batch(site int, records []message, parent *spans.Span) (int, error) {
	resp, err := c.exchange(site, message{Op: opBatch, Batch: records}, parent)
	if err != nil {
		return 0, err
	}
	if !resp.OK {
		applied := min(max(resp.Applied, 0), len(records))
		return applied, fmt.Errorf("netnode: site %d rejected a batch: %w", site, &replyError{Code: resp.Code, Msg: resp.Err})
	}
	return len(records), nil
}

// batchReserve bounds the bytes of a batch line outside its records: the
// envelope, the trace context and the newline.
const batchReserve = 128

// fitLine returns how many leading records fit in one batch line of at
// most maxLineBytes — at least one, so a record that overflows a line on
// its own is sent, and refused, rather than never sent.
func fitLine(records []message) int {
	size := batchReserve
	var buf []byte
	for i := range records {
		buf = appendMessage(buf[:0], &records[i])
		size += len(buf) + 1 // and its comma
		if size > maxLineBytes {
			return max(i, 1)
		}
	}
	return len(records)
}

// records is what holdings reads beside the placement: each holder's
// version, each member's SP_k, the replica set R_k each object's primary
// records, and the drift from a migration's target.
type records struct {
	sites    int
	versions []int64 // [k*sites+m]: member m's version of k, 0 where m holds none
	routes   []int   // [k*sites+m]: the SP_k member m's record names
	primaryR [][]int // R_k as recorded by a member whose record names itself SP_k
	// The drift: per object, the members whose routing records differ
	// from a migration's target — R_k in replicas, SP_k in primary — and
	// so the records the routing refresh sends them.
	replicas, primary [][]int
}

// primaryOf returns the one member whose record names itself SP_k: the
// only site that accepts a write of k or a reconcile of it. ok is false
// where no member's record does, or more than one does (a promotion that
// reached only some members).
func (r *records) primaryOf(k int, members []int) (sp int, ok bool) {
	sp = -1
	for _, m := range members {
		if r.routes[k*r.sites+m] == m {
			if sp >= 0 {
				return -1, false
			}
			sp = m
		}
	}
	return sp, sp >= 0
}

// behind lists the holders of k in primary sp's R_k whose version is below
// sp's: the replicas that missed a write and have not caught up since.
// sp must be primaryOf's answer, whose R_k primaryR holds.
func (r *records) behind(k, sp int, holders []int) []int {
	var out []int
	for _, j := range r.primaryR[k] {
		if j != sp && slices.Contains(holders, j) && r.versions[k*r.sites+j] < r.versions[k*r.sites+sp] {
			out = append(out, j)
		}
	}
	return out
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
func (c *Cluster) holdings(target *plan.Plan) (*plan.Plan, *records) {
	n, sites := c.p.Objects(), c.p.Sites()
	pl := &plan.Plan{
		View:      plan.View{Members: append([]int(nil), c.view.Members...)},
		Primaries: make([]int, n),
		Placement: make([][]int, n),
	}
	r := &records{
		sites:    sites,
		versions: make([]int64, n*sites),
		routes:   make([]int, n*sites),
		primaryR: make([][]int, n),
		replicas: make([][]int, n),
		primary:  make([][]int, n),
	}
	votes := make([]int, n)
	for _, m := range c.view.Members {
		c.nodes[m].st.Records(func(k int, holds bool, ver int64, sp int, replicas []int) {
			if holds {
				pl.Placement[k] = append(pl.Placement[k], m)
				r.versions[k*sites+m] = ver
			}
			r.routes[k*sites+m] = sp
			if sp == m {
				r.primaryR[k] = replicas
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
				r.primary[k] = append(r.primary[k], m)
			}
			if !slices.Equal(replicas, target.Placement[k]) {
				r.replicas[k] = append(r.replicas[k], m)
			}
		})
	}
	for k, held := range pl.Placement {
		if sp := pl.Primaries[k]; target != nil && slices.Contains(held, sp) {
			pl.Placement[k] = slices.DeleteFunc(held, func(m int) bool {
				return r.versions[k*sites+m] != r.versions[k*sites+sp] && target.Has(m, k)
			})
		}
	}
	return pl, r
}

// ResumeMigration finishes a migration interrupted by a crash by
// migrating to the journaled target plan. resumed is false when no journal
// is attached, it holds no plan, or the target is rejected before a step
// runs. Only the remainder runs; a realised target sends nothing and is
// adopted (epoch, view).
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
