package netnode

import (
	"bytes"
	"errors"
	"testing"

	"drp/internal/core"
	"drp/internal/netsim"
	"drp/internal/sra"
	"drp/internal/store"
)

func startDurable(t *testing.T, p *core.Problem, root string, opts store.Options) *Cluster {
	t.Helper()
	c, err := StartDurable(p, root, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// A durable cluster serves the measurement period at exactly eq. 4's cost,
// like the memory cluster — the WAL must be invisible to the cost model.
func TestDurableTrafficCostEqualsEq4(t *testing.T) {
	p := gen(t, 4, 5, 0.2, 0.4, 31)
	c := startDurable(t, p, t.TempDir(), testStoreOpts())
	scheme := sra.Run(p, sra.Options{}).Scheme
	if _, err := c.Deploy(scheme); err != nil {
		t.Fatal(err)
	}
	total, err := c.DriveTraffic()
	if err != nil {
		t.Fatal(err)
	}
	if want := scheme.Cost(); total != want {
		t.Fatalf("durable TCP traffic cost %d != eq.4 D %d", total, want)
	}
}

// testStoreOpts keeps durable tests fast: process kills lose nothing that
// reached the OS, so SyncNever still exercises the full recovery path.
func testStoreOpts() store.Options { return store.Options{Sync: store.SyncNever} }

// TestReconcileCostEntersLedger: the copy Reconcile ships to a replica
// behind its primary is accounted in the primary's store, so TotalNTC
// grows by exactly the cost Reconcile returns, and the amount is logged:
// it survives the primary's kill and restart.
func TestReconcileCostEntersLedger(t *testing.T) {
	p := viewProblem(t)
	c := startDurable(t, p, t.TempDir(), testStoreOpts())
	leaveBehind(t, c)
	before := c.TotalNTC()
	cost, remaining, err := c.Reconcile()
	if err != nil || remaining != 0 {
		t.Fatalf("reconcile: remaining %d, err %v", remaining, err)
	}
	if want := p.Size(0) * p.Cost(0, 3); cost != want {
		t.Fatalf("reconcile cost %d, want the one copy %d", cost, want)
	}
	if got := c.TotalNTC() - before; got != cost {
		t.Fatalf("TotalNTC grew by %d, reconcile returned %d", got, cost)
	}
	if err := c.Node(0).Kill(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RestartNode(0); err != nil {
		t.Fatal(err)
	}
	if got := c.TotalNTC() - before; got != cost {
		t.Fatalf("after the primary's restart TotalNTC is %d past the reconcile's start, want %d", got, cost)
	}
}

// Kill one node mid-cluster and restart it from its directory: the
// recovered state must be byte-identical to what the node had acknowledged
// at the instant of the kill, and the cluster must serve correctly again.
func TestKillAndRestartRecoversNodeState(t *testing.T) {
	p := gen(t, 4, 5, 0.2, 0.6, 32)
	root := t.TempDir()
	c := startDurable(t, p, root, testStoreOpts())
	scheme := sra.Run(p, sra.Options{}).Scheme
	if _, err := c.Deploy(scheme); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DriveTraffic(); err != nil {
		t.Fatal(err)
	}

	victim := 1
	want := c.Node(victim).Store().EncodeState()
	if err := c.Node(victim).Kill(); err != nil {
		t.Fatal(err)
	}
	node, err := c.RestartNode(victim)
	if err != nil {
		t.Fatal(err)
	}
	if !node.Store().Recovered() {
		t.Fatal("restarted node found no durable state")
	}
	if got := node.Store().EncodeState(); !bytes.Equal(got, want) {
		t.Fatalf("recovered state differs:\n got %s\nwant %s", got, want)
	}
	// The cluster serves the full period again at the model's exact cost
	// (versions advance from the recovered stamps; cost is unaffected).
	total, err := c.DriveTraffic()
	if err != nil {
		t.Fatal(err)
	}
	if want := scheme.Cost(); total != want {
		t.Fatalf("post-restart traffic cost %d != eq.4 D %d", total, want)
	}
}

// Stop the whole cluster and reopen it from the same root: the deployed
// scheme, versions and NTC must all come back from disk, and a redeploy of
// the same scheme must be free (the diff is empty because the recovered
// scheme matches).
func TestClusterRestartRecoversSchemeAndVersions(t *testing.T) {
	p := gen(t, 4, 5, 0.1, 0.8, 33)
	root := t.TempDir()
	scheme := sra.Run(p, sra.Options{}).Scheme

	c := startDurable(t, p, root, testStoreOpts())
	if _, err := c.Deploy(scheme); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DriveTraffic(); err != nil {
		t.Fatal(err)
	}
	versions := make([]int64, p.Objects())
	ntc := make([]int64, p.Sites())
	for k := 0; k < p.Objects(); k++ {
		versions[k] = c.Node(p.Primary(k)).Version(k)
	}
	for i := 0; i < p.Sites(); i++ {
		ntc[i] = c.Node(i).NTC()
	}
	c.Close()

	r := startDurable(t, p, root, testStoreOpts())
	if !r.Scheme().Equal(scheme) {
		t.Fatal("recovered scheme differs from the deployed one")
	}
	for k := 0; k < p.Objects(); k++ {
		if got := r.Node(p.Primary(k)).Version(k); got != versions[k] {
			t.Fatalf("object %d recovered at version %d, want %d", k, got, versions[k])
		}
	}
	for i := 0; i < p.Sites(); i++ {
		if got := r.Node(i).NTC(); got != ntc[i] {
			t.Fatalf("site %d recovered NTC %d, want %d", i, got, ntc[i])
		}
	}
	cost, err := r.Deploy(scheme)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 0 {
		t.Fatalf("redeploying the recovered scheme cost %d, want 0", cost)
	}
}

// Snapshots must be transparent: force one mid-run, keep writing, crash,
// and recover the exact state from snapshot + tail segment.
func TestSnapshotMidTrafficIsTransparent(t *testing.T) {
	p := gen(t, 3, 4, 0.2, 0.8, 34)
	root := t.TempDir()
	c := startDurable(t, p, root, testStoreOpts())
	scheme := sra.Run(p, sra.Options{}).Scheme
	if _, err := c.Deploy(scheme); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DriveTraffic(); err != nil {
		t.Fatal(err)
	}
	victim := 0
	if err := c.Node(victim).Store().Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DriveTraffic(); err != nil { // post-snapshot delta
		t.Fatal(err)
	}
	want := c.Node(victim).Store().EncodeState()
	if err := c.Node(victim).Kill(); err != nil {
		t.Fatal(err)
	}
	node, err := c.RestartNode(victim)
	if err != nil {
		t.Fatal(err)
	}
	if got := node.Store().EncodeState(); !bytes.Equal(got, want) {
		t.Fatalf("snapshot+tail recovery differs:\n got %s\nwant %s", got, want)
	}
}

// Regression: a redeploy sends every copy before any drop, so a crash in
// between leaves a site holding more than its capacity. The recovered
// cluster must boot on that state anyway (recovery used to rebuild a
// core.Scheme, whose capacity check refused it) and the interrupted
// redeploy, run again, must converge.
func TestDurableBootToleratesInterruptedRedeploy(t *testing.T) {
	// Three sites on a line, one 4-unit object primaried at each, room for
	// exactly one replica per site.
	topo := netsim.NewTopology(3)
	for _, l := range [][2]int{{0, 1}, {1, 2}} {
		if err := topo.AddLink(l[0], l[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	dist, err := topo.Distances()
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewProblem(core.Config{
		Sizes:      []int64{4, 4, 4},
		Capacities: []int64{8, 8, 8},
		Primaries:  []int{0, 1, 2},
		Reads:      [][]int64{{3, 5, 7}, {2, 3, 1}, {6, 1, 3}},
		Writes:     [][]int64{{1, 0, 1}, {0, 1, 0}, {1, 1, 1}},
		Dist:       dist,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := core.NewScheme(p), core.NewScheme(p)
	if err := a.Add(0, 1); err != nil { // A: site 0 replicates object 1
		t.Fatal(err)
	}
	if err := b.Add(0, 2); err != nil { // B: site 0 replicates object 2 instead
		t.Fatal(err)
	}

	root := t.TempDir()
	c := startDurable(t, p, root, testStoreOpts())
	if _, err := c.Deploy(a); err != nil {
		t.Fatal(err)
	}
	// The A→B redeploy, interrupted: its copy landed, its drop never ran.
	if err := c.command(0, message{Op: "place", Object: 2}, nil); err != nil {
		t.Fatal(err)
	}
	c.Close()

	r, err := StartDurable(p, root, testStoreOpts())
	if err != nil {
		t.Fatalf("boot on an interrupted redeploy: %v", err)
	}
	t.Cleanup(r.Close)
	if !r.Plan().Has(0, 1) || !r.Plan().Has(0, 2) {
		t.Fatalf("recovered plan %v lost the over-capacity holdings of site 0", r.Plan().Placement)
	}
	if _, err := r.Deploy(b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.Sites(); i++ {
		for k := 0; k < p.Objects(); k++ {
			if r.Node(i).Holds(k) != b.Has(i, k) {
				t.Fatalf("site %d holds(%d)=%v, scheme B says %v", i, k, r.Node(i).Holds(k), b.Has(i, k))
			}
		}
	}
	total, err := r.DriveTraffic()
	if err != nil {
		t.Fatal(err)
	}
	if want := b.Cost(); total != want {
		t.Fatalf("traffic cost %d after convergence != eq.4 D %d", total, want)
	}
}

// Fail each coordinator command of one Deploy in turn, restart the whole
// cluster from its directories and deploy again: the routing state the
// restarted cluster serves with must be exactly the scheme's, whichever
// command the first attempt died on. The primary's replicas record is
// written last, so it is the commit point the redeploy reads.
func TestDurableRestartAfterFailedRefresh(t *testing.T) {
	p := gen(t, 5, 8, 0.2, 0.6, 32)
	scheme := sra.Run(p, sra.Options{}).Scheme
	want := scheme.Cost()

	// One undisturbed Deploy counts the commands to fail.
	c := startDurable(t, p, t.TempDir(), testStoreOpts())
	commands := 0
	c.SetCommandDialer(func(string) error { commands++; return nil })
	if _, err := c.Deploy(scheme); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if commands == 0 {
		t.Fatal("the deploy sent no commands")
	}

	for fail := 0; fail < commands; fail++ {
		root := t.TempDir()
		c := startDurable(t, p, root, testStoreOpts())
		sent := 0
		c.SetCommandDialer(func(string) error {
			sent++
			if sent-1 == fail {
				return errors.New("injected command failure")
			}
			return nil
		})
		if _, err := c.Deploy(scheme); err == nil {
			t.Fatalf("command %d: the deploy survived its failure", fail)
		}
		c.Close()

		r := startDurable(t, p, root, testStoreOpts())
		if _, err := r.Deploy(scheme); err != nil {
			t.Fatalf("command %d: redeploy after restart: %v", fail, err)
		}
		total, err := r.DriveTraffic()
		if err != nil {
			t.Fatalf("command %d: %v", fail, err)
		}
		if total != want {
			t.Errorf("command %d failed, restarted: traffic cost %d != eq.4 D %d", fail, total, want)
		}
		r.Close()
	}
}
