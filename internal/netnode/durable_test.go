package netnode

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"drp/internal/core"
	"drp/internal/metrics"
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
	if err := c.record(0, message{Op: "place", Object: 2}); err != nil {
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
	c.SetCommandDialer(commandGate(func(int) error { commands++; return nil }))
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
		c.SetCommandDialer(commandGate(func(int) error {
			sent++
			if sent-1 == fail {
				return errors.New("injected command failure")
			}
			return nil
		}))
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

// TestDurableTornBatchRecoversPrefix cuts one site's log inside the last
// batch a Deploy sent it, at every frame boundary and in the middle of
// its last frame. Each time the reopened store must replay exactly the
// records before the cut — the whole frames up to it, and the tail after
// them cut away — so a torn batch costs at most that batch, and the
// cluster restarted on the cut directory must converge when the Deploy
// runs again.
func TestDurableTornBatchRecoversPrefix(t *testing.T) {
	p := gen(t, 5, 8, 0.2, 0.6, 32)
	scheme := sra.Run(p, sra.Options{}).Scheme
	root := t.TempDir()
	c := startDurable(t, p, root, testStoreOpts())
	segment := func(root string, s int) string {
		paths, err := filepath.Glob(filepath.Join(siteDir(root, s), "wal-*.log"))
		if err != nil || len(paths) != 1 {
			t.Fatalf("site %d: log segments %v, %v; want one", s, paths, err)
		}
		return paths[0]
	}
	// Before each command: where the site's log ends, and its state.
	type mark struct {
		size  int64
		state []byte
	}
	before := make(map[int]mark)
	c.SetCommandDialer(commandGate(func(s int) error {
		fi, err := os.Stat(segment(root, s))
		if err != nil {
			return err
		}
		before[s] = mark{fi.Size(), c.Node(s).Store().EncodeState()}
		return nil
	}))
	if _, err := c.Deploy(scheme); err != nil {
		t.Fatal(err)
	}
	after := make(map[int][]byte)
	for _, m := range c.Members() {
		after[m] = c.Node(m).Store().EncodeState()
	}
	c.Close()

	// The site whose last batch holds the most records, and its log's
	// frame boundaries: bounds[i] ends the first i frames.
	site, most := -1, 0
	var log []byte
	var bounds []int64
	for s, b := range before {
		data, err := os.ReadFile(segment(root, s))
		if err != nil {
			t.Fatal(err)
		}
		at := []int64{int64(len("DRPWAL1\n"))}
		for off := at[0]; off < int64(len(data)); {
			off += 8 + int64(binary.LittleEndian.Uint32(data[off:]))
			at = append(at, off)
		}
		if n := len(at) - 1 - slices.Index(at, b.size); n > most || n == most && s < site {
			site, most, log, bounds = s, n, data, at
		}
	}
	if most < 2 {
		t.Fatalf("no site's last batch holds more than %d records", most)
	}
	first, last := slices.Index(bounds, before[site].size), len(bounds)-1
	// cut: where the log is cut; whole: the frames before it.
	type cut struct {
		at    int64
		whole int
	}
	var cuts []cut
	for i := first; i <= last; i++ {
		cuts = append(cuts, cut{bounds[i], i})
	}
	cuts = append(cuts, cut{(bounds[last-1] + bounds[last]) / 2, last - 1})

	states := make(map[int][]byte) // by the whole frames recovered
	for _, cu := range cuts {
		what := fmt.Sprintf("site %d's log cut at byte %d of %d", site, cu.at, len(log))
		dir := t.TempDir()
		for _, m := range c.Members() {
			copyDir(t, siteDir(root, m), siteDir(dir, m))
		}
		if err := os.Truncate(segment(dir, site), cu.at); err != nil {
			t.Fatal(err)
		}
		reg := metrics.NewRegistry()
		st, err := store.Open(siteDir(dir, site), site, primaries(p), store.Options{Sync: store.SyncNever, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		state := st.EncodeState()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if got := reg.Counter("drp_store_replay_records_total", "", nil).Value(); got != int64(cu.whole) {
			t.Fatalf("%s: replayed %d records, want the %d whole ones before the cut", what, got, cu.whole)
		}
		kept, err := os.ReadFile(segment(dir, site))
		if err != nil {
			t.Fatal(err)
		}
		if end := bounds[cu.whole]; !bytes.Equal(kept, log[:end]) {
			t.Fatalf("%s: the reopened log is %d bytes, want the %d before the cut", what, len(kept), end)
		}
		switch seen, ok := states[cu.whole]; {
		case cu.whole == first && !bytes.Equal(state, before[site].state):
			t.Fatalf("%s: the state differs from the one before the batch", what)
		case cu.whole == last && !bytes.Equal(state, after[site]):
			t.Fatalf("%s: the state differs from the one the Deploy left", what)
		case ok && !bytes.Equal(state, seen):
			t.Fatalf("%s: the state differs from the one at the frame boundary before the cut", what)
		case !ok && cu.whole > first && bytes.Equal(state, states[cu.whole-1]):
			t.Fatalf("%s: the state is the one a frame earlier", what)
		}
		states[cu.whole] = state

		r := startDurable(t, p, dir, testStoreOpts())
		if _, err := r.Deploy(scheme); err != nil {
			t.Fatalf("%s: the Deploy again: %v", what, err)
		}
		requireConverged(t, r, what)
		r.Close()
	}
}
