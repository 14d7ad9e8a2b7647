package netnode

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"drp/internal/core"
	"drp/internal/metrics"
	"drp/internal/plan"
	"drp/internal/spans"
	"drp/internal/store"
	"drp/internal/xrand"
)

// Cluster manages one node per member site on the loopback interface and
// plays the coordinator (monitor) role: migrating the data plane between
// placement plans, driving traffic, and — under faults — flushing queued
// writes and re-syncing the replicas behind their primary. The node slice
// is universe-indexed; a site that has not joined (or has left) is a nil
// slot. A full-membership cluster is simply the view cluster whose view
// is every site.
type Cluster struct {
	p      *core.Problem
	nodes  []*Node
	view   plan.View  // member sites; Join and Leave move it on
	target *plan.Plan // the last adopted migration target, not what the members hold

	opts  callOpts  // coordinator commands: gate (fault seam), retries, deadline
	links transport // the coordinator's own links to the member sites
	hook  func()    // called before every driven request

	journal  *store.Journal  // coordinator journal (plan persistence)
	stepHook func(plan.Step) // chaos seam: runs before each migration step

	dataDir    string            // "" for a memory cluster
	storeOpts  store.Options     // per-site store options (durable clusters)
	metricsReg *metrics.Registry // re-applied to restarted nodes
	tracer     *spans.Tracer     // shared request tracer; re-applied to restarted nodes
}

// siteDir returns the data directory of site i under a cluster root.
func siteDir(root string, i int) string {
	return filepath.Join(root, fmt.Sprintf("site-%03d", i))
}

// StartLocal boots one memory-backed node per site on 127.0.0.1 ephemeral
// ports, wires the address tables and deploys the primaries-only scheme.
func StartLocal(p *core.Problem) (*Cluster, error) {
	return StartView(p, allSites(p))
}

// StartDurable boots one durable node per site, each opening — and
// therefore replaying — a WAL-backed store in root/site-NNN. On a fresh
// root this is StartLocal with persistence; on a root that has seen a
// crash, every node restarts with exactly the state it had acknowledged,
// and the adopted target is read back from the recovered holdings.
func StartDurable(p *core.Problem, root string, opts store.Options) (*Cluster, error) {
	return StartDurableView(p, root, opts, allSites(p))
}

// StartView boots a memory-backed cluster over the member subset of the
// universe problem. Members must include every universe primary site (a
// memory node bootstraps holding exactly the objects primaried at it);
// the initial plan is the primaries-only placement over that view.
func StartView(p *core.Problem, members []int) (*Cluster, error) {
	return start(p, members, "", store.Options{})
}

// StartDurableView boots a durable cluster over the member subset, each
// member replaying its WAL from root/site-NNN. A universe primary site
// may be absent as long as every object still has a member holder and a
// member primary (i.e. it was drained by an earlier plan before leaving);
// if a journal is attached afterwards, ResumeMigration finishes any
// migration the previous incarnation had journaled but not completed.
func StartDurableView(p *core.Problem, root string, opts store.Options, members []int) (*Cluster, error) {
	if root == "" {
		return nil, errors.New("netnode: a durable cluster needs a data directory")
	}
	return start(p, members, root, opts)
}

// allSites returns every universe site index, ascending.
func allSites(p *core.Problem) []int {
	ms := make([]int, p.Sites())
	for i := range ms {
		ms[i] = i
	}
	return ms
}

// start is the one boot path: a node per member (memory-backed when root
// is ""), the address tables, and the adopted target read back from what
// the nodes hold — the primaries-only placement on a fresh boot, the
// recovered placement after a replay. A site left over capacity by an
// interrupted migration is tolerated: the next migration drops the
// surplus.
func start(p *core.Problem, members []int, root string, opts store.Options) (*Cluster, error) {
	view, err := plan.NewView(p.Sites(), members)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		p:         p,
		nodes:     make([]*Node, p.Sites()),
		view:      view,
		links:     transport{rng: xrand.New(0x10ad)},
		dataDir:   root,
		storeOpts: opts,
	}
	for _, i := range view.Members {
		if c.nodes[i], err = c.bootNode(i); err != nil {
			c.Close()
			return nil, err
		}
	}
	c.rewirePeers()
	c.target, _ = c.holdings(nil)
	for k := 0; k < p.Objects(); k++ {
		if len(c.target.Placement[k]) == 0 {
			c.Close()
			return nil, fmt.Errorf("netnode: no member holds object %d; its primary site %d must be in the member set or the object migrated before it left", k, p.Primary(k))
		}
		if !view.Has(c.target.Primaries[k]) {
			c.Close()
			return nil, fmt.Errorf("netnode: recovered primary of object %d is site %d, which is not a member", k, c.target.Primaries[k])
		}
	}
	return c, nil
}

// bootNode starts site i's node: its store is opened from the site's data
// directory — replaying the log — or, when the cluster has none, in
// memory (store.Open's empty-dir case), a fresh listener starts, and the
// cluster's attempt count, request timeout, metrics registry and tracer
// are applied.
func (c *Cluster) bootNode(i int) (*Node, error) {
	dir := ""
	if c.dataDir != "" {
		dir = siteDir(c.dataDir, i)
	}
	st, err := store.Open(dir, i, primaries(c.p), c.storeOpts)
	if err != nil {
		return nil, err
	}
	node, err := listenStore(c.p, i, "127.0.0.1:0", st)
	if err != nil {
		_ = st.Close()
		return nil, err
	}
	node.setRetry(c.opts.attempts)
	node.setRequestTimeout(c.opts.timeout)
	node.setMetrics(c.metricsReg)
	node.setTracer(c.tracer)
	return node, nil
}

// RestartNode brings site i back after a Kill (or Close): its store is
// reopened from the site's data directory, a fresh listener starts with
// the gate the old node had, and every node's address table is rewired.
func (c *Cluster) RestartNode(i int) (*Node, error) {
	if c.dataDir == "" {
		return nil, errors.New("netnode: RestartNode needs a durable cluster")
	}
	if i < 0 || i >= len(c.nodes) {
		return nil, fmt.Errorf("netnode: site %d out of range", i)
	}
	if c.nodes[i] == nil {
		return nil, fmt.Errorf("netnode: site %d is not a member", i)
	}
	old := c.nodes[i]
	_ = old.Kill() // idempotent: a no-op after Kill or Close
	node, err := c.bootNode(i)
	if err != nil {
		return nil, err
	}
	node.SetDialer(old.cfg.Load().gate)
	c.nodes[i] = node
	c.rewirePeers()
	return node, nil
}

// Node returns the node for site i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Sites returns the number of sites in the cluster.
func (c *Cluster) Sites() int { return c.p.Sites() }

// TotalNTC sums the transfer cost accounted by every live node since it
// started: the cost of the requests it served and of the writes it flushed
// and replicas it reconciled. Migration is not in this ledger — placing a
// replica accounts nothing at the node; its cost is a-priori (Deploy's
// return value, ApplyReport.MigrationNTC). Load harnesses diff TotalNTC
// around a run to attribute cost to that run alone.
func (c *Cluster) TotalNTC() int64 {
	var total int64
	for _, node := range c.nodes {
		if node != nil {
			total += node.NTC()
		}
	}
	return total
}

// Scheme returns the placement the members hold as a scheme, or nil when
// it has no scheme form — a primary moved off (or drained from) its
// universe site, or an interrupted migration left a site over capacity.
func (c *Cluster) Scheme() *core.Scheme {
	held, _ := c.holdings(nil)
	s, _ := held.Scheme(c.p) // the error only says why there is none
	return s
}

// SetCommandDialer installs d as the gate every attempt of the
// coordinator's own commands must pass (nil removes it); it names the
// member each command goes to. Fault middleware hooks in here. Like
// Node.SetDialer it kept its name when the seam moved from the dial to
// the attempt, for its callers outside this module.
func (c *Cluster) SetCommandDialer(d Dialer) { c.opts.gate = d }

// SetRequestHook installs fn to run immediately before every request
// driven by DriveTraffic / DriveTrafficReport. Fault injectors use it to
// advance their deterministic logical clock in lockstep with the traffic.
func (c *Cluster) SetRequestHook(fn func()) { c.hook = fn }

// SetRetry sets the transport attempts per request (1 = no retrying) of
// every node's client calls and of the coordinator's commands. A retry
// backs off 200 µs, doubling up to 1 ms, half of it jittered.
func (c *Cluster) SetRetry(attempts int) {
	c.opts.attempts = attempts
	for _, node := range c.nodes {
		if node != nil {
			node.setRetry(attempts)
		}
	}
}

// SetRequestTimeout applies one per-request deadline to every node's
// client calls and to the coordinator's commands.
func (c *Cluster) SetRequestTimeout(d time.Duration) {
	c.opts.timeout = d
	for _, node := range c.nodes {
		if node != nil {
			node.setRequestTimeout(d)
		}
	}
}

// Close shuts every node down, after the coordinator's links to them.
func (c *Cluster) Close() {
	c.links.close()
	for _, node := range c.nodes {
		if node != nil {
			_ = node.close()
		}
	}
}

// Deploy migrates the data plane to the scheme next over the current
// member set — the scheme-typed entry to the engine ApplyPlan runs, with
// the problem's own primaries (so a primary an earlier plan promoted
// elsewhere is promoted back). Returns the migration
// transfer cost (each new replica fetched from the nearest prior holder).
func (c *Cluster) Deploy(next *core.Scheme) (int64, error) {
	target := plan.FromScheme(next)
	target.Epoch, target.View = c.target.Epoch, plan.View{Epoch: c.target.View.Epoch, Members: c.view.Members}.Clone()
	rep, err := c.migrate(c.tracer.Root("deploy"), target)
	if err != nil {
		return 0, err
	}
	return rep.MigrationNTC, nil
}

// exchange runs one coordinator request against a member site under the
// coordinator's gate, attempt count and deadline.
func (c *Cluster) exchange(site int, msg message, parent *spans.Span) (reply, error) {
	if c.nodes[site] == nil {
		return reply{}, fmt.Errorf("netnode: site %d is not a member", site)
	}
	return c.links.exchange(c.opts, nil, site, c.nodes[site].Addr(), site, msg, parent)
}

// TrafficReport summarises one measurement period driven under faults.
type TrafficReport struct {
	// NTC is the transfer cost accounted to the requests that were served.
	NTC int64
	// Reads/Writes count the requests that were served (including reads
	// served by failover and writes with a partial broadcast).
	Reads, Writes int64
	// FailedReads count reads that found no reachable replica.
	FailedReads int64
	// QueuedWrites count writes queued because the primary was unreachable;
	// FlushPending replays them.
	QueuedWrites int64
}

// DriveTraffic issues every read and write of the problem's measurement
// period through the TCP cluster and returns the total accounted transfer
// cost. With current replica sets and no faults this equals eq. 4's D
// for the deployed scheme. Any request failure aborts with its error.
func (c *Cluster) DriveTraffic() (int64, error) {
	rep, err := c.driveTraffic(false)
	if err != nil {
		return 0, err
	}
	return rep.NTC, nil
}

// DriveTrafficReport drives the same measurement period but degrades
// instead of aborting: reads with no live replica and writes whose
// primary is unreachable are counted in the report rather than failing
// the run. Protocol-level rejections (coordination bugs) still abort.
func (c *Cluster) DriveTrafficReport() (*TrafficReport, error) {
	return c.driveTraffic(true)
}

func (c *Cluster) driveTraffic(tolerate bool) (*TrafficReport, error) {
	rep := &TrafficReport{}
	for _, i := range c.view.Members {
		for k := 0; k < c.p.Objects(); k++ {
			for r := int64(0); r < c.p.Reads(i, k); r++ {
				if c.hook != nil {
					c.hook()
				}
				cost, err := c.nodes[i].Read(k)
				if err != nil {
					if tolerate && errors.Is(err, ErrNoReplica) {
						rep.FailedReads++
						continue
					}
					return rep, fmt.Errorf("read site %d object %d: %w", i, k, err)
				}
				rep.Reads++
				rep.NTC += cost
			}
			for w := int64(0); w < c.p.Writes(i, k); w++ {
				if c.hook != nil {
					c.hook()
				}
				cost, err := c.nodes[i].Write(k)
				if err != nil {
					if tolerate && errors.Is(err, ErrWriteQueued) {
						rep.QueuedWrites++
						continue
					}
					return rep, fmt.Errorf("write site %d object %d: %w", i, k, err)
				}
				rep.Writes++
				rep.NTC += cost
			}
		}
	}
	return rep, nil
}

// FlushPending replays every queued write in site order and returns the
// transfer cost incurred. Writes whose primary is still unreachable stay
// queued.
func (c *Cluster) FlushPending() (int64, error) {
	var total int64
	for _, node := range c.nodes {
		if node == nil {
			continue
		}
		cost, err := node.flushPending()
		total += cost
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// PendingWrites sums the queued writes across all nodes.
func (c *Cluster) PendingWrites() int {
	total := 0
	for _, node := range c.nodes {
		if node != nil {
			total += node.pendingWrites()
		}
	}
	return total
}

// errSplitPrimary reports objects Reconcile skipped: no member's record
// names itself their primary, or more than one does.
var errSplitPrimary = errors.New("netnode: no single member's record names itself the primary")

// Reconcile re-syncs the replicas that missed a write (crashed or
// partitioned during its broadcast) and have not caught up since: it
// reads every member's records in the one pass holdings makes and, for
// each object with a holder in its primary's R_k below the primary's
// version, asks the primary — the member whose record names itself SP_k
// — to re-sync those holders. An object with none costs no round trip;
// one whose records name no such member, or several, is skipped and named
// in the errSplitPrimary returned once the rest are done. It returns the
// transfer cost of the re-shipped copies and the number of those holders
// still unreachable. Run it after a failed site rejoins to restore
// version convergence.
func (c *Cluster) Reconcile() (int64, int, error) {
	held, rec := c.holdings(nil)
	var total int64
	remaining := 0
	var split []int
	for k := 0; k < c.p.Objects(); k++ {
		sp, ok := rec.primaryOf(k, c.view.Members)
		if !ok {
			split = append(split, k)
			continue
		}
		behind := rec.behind(k, sp, held.Placement[k])
		if len(behind) == 0 {
			continue
		}
		// One root span per object re-synced: the transfers themselves
		// are recorded primary-side and stitch in over the wire context.
		root := c.tracer.Root("reconcile")
		root.SetObject(k)
		root.SetPeer(sp)
		resp, err := c.exchange(sp, message{Op: "reconcile", Object: k, Sites: behind}, root)
		if err != nil {
			root.SetErr(err)
			root.Finish()
			return total, remaining, fmt.Errorf("reconcile object %d: %w", k, err)
		}
		if !resp.OK {
			root.SetErrText(resp.Err)
			root.Finish()
			return total, remaining, fmt.Errorf("reconcile object %d: %w", k, &replyError{Code: resp.Code, Msg: resp.Err})
		}
		root.Finish()
		total += resp.Cost
		remaining += len(resp.Stale)
	}
	if len(split) > 0 {
		return total, remaining, fmt.Errorf("%w of objects %v; reconcile skipped them", errSplitPrimary, split)
	}
	return total, remaining, nil
}
