package netnode

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"drp/internal/agra"
	"drp/internal/cluster"
	"drp/internal/core"
	"drp/internal/gra"
	"drp/internal/plan"
	"drp/internal/spans"
	"drp/internal/sra"
	"drp/internal/store"
	"drp/internal/workload"
)

func gen(t testing.TB, m, n int, u, c float64, seed uint64) *core.Problem {
	t.Helper()
	p, err := workload.Generate(workload.NewSpec(m, n, u, c), seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Listen starts a memory-backed node for the site on addr, holding exactly
// the objects primaried at it, under a settings record of its own with no
// peers.
func Listen(p *core.Problem, site int, addr string) (*Node, error) {
	st, err := store.Open("", site, primaries(p), store.Options{})
	if err != nil {
		return nil, err
	}
	return listenStore(p, site, addr, st, newConfig())
}

// command sends one request to a site and turns a rejection into an
// error.
func (c *Cluster) command(site int, msg message, parent *spans.Span) error {
	resp, err := c.exchange(site, msg, parent)
	if err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("netnode: site %d rejected %s: %w", site, msg.Op, &replyError{Code: resp.Code, Msg: resp.Err})
	}
	return nil
}

// record sends one coordinator record to a site as a batch of one and
// turns a rejection into an error.
func (c *Cluster) record(site int, msg message) error {
	_, err := c.batch(site, []message{msg}, nil)
	return err
}

func startCluster(t *testing.T, p *core.Problem) *Cluster {
	t.Helper()
	c, err := StartLocal(p)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// The headline test: traffic served over real TCP sockets costs exactly
// what eq. 4 predicts, both for the primaries-only scheme and for an
// SRA-optimised one.
func TestTCPTrafficCostEqualsEq4(t *testing.T) {
	p := gen(t, 5, 6, 0.2, 0.4, 1)
	c := startCluster(t, p)

	total, err := c.DriveTraffic()
	if err != nil {
		t.Fatal(err)
	}
	if total != p.DPrime() {
		t.Fatalf("primaries-only TCP traffic cost %d != D' %d", total, p.DPrime())
	}

	scheme := sra.Run(p, sra.Options{}).Scheme
	if _, err := c.Deploy(scheme); err != nil {
		t.Fatal(err)
	}
	total, err = c.DriveTraffic()
	if err != nil {
		t.Fatal(err)
	}
	if want := scheme.Cost(); total != want {
		t.Fatalf("deployed-scheme TCP traffic cost %d != eq.4 D %d", total, want)
	}
}

// TestDeployMigrationCostMatchesModel: the epoch simulator charges every
// scheme change exactly what the wire pays for it. A drifting multi-epoch
// cluster.Run deploys each epoch's scheme onto a live cluster; Deploy's
// cost must equal the epoch's MigrationNTC, the copies it runs must number
// the epoch's Migrations, and redeploying the same scheme is free.
func TestDeployMigrationCostMatchesModel(t *testing.T) {
	p := gen(t, 8, 12, 0.05, 0.3, 2)
	initial := sra.Run(p, sra.Options{}).Scheme
	for _, policy := range []cluster.Policy{cluster.PolicyAGRAMini, cluster.PolicyGRA} {
		t.Run(policy.String(), func(t *testing.T) {
			c := startCluster(t, p)
			if _, err := c.Deploy(initial); err != nil {
				t.Fatal(err)
			}
			graParams := gra.DefaultParams()
			graParams.PopSize, graParams.Generations = 10, 10
			var migrated int64
			cfg := cluster.Config{
				Epochs:     4,
				Policy:     policy,
				Drift:      &workload.ChangeSpec{Ch: 6, ObjectShare: 0.3, ReadShare: 0.5},
				GRAParams:  graParams,
				AGRAParams: agra.DefaultParams(),
				Seed:       7,
				OnEpoch: func(epoch int, scheme *core.Scheme, stats *cluster.EpochStats) error {
					steps, err := plan.Diff(c.Plan(), plan.FromScheme(scheme), p)
					if err != nil {
						return err
					}
					copies := 0
					for _, s := range steps {
						if s.Kind == plan.Copy {
							copies++
						}
					}
					got, err := c.Deploy(scheme)
					if err != nil {
						return err
					}
					if got != stats.MigrationNTC || copies != stats.Migrations {
						return fmt.Errorf("epoch %d: the wire copied %d replicas for %d, the simulator charged %d for %d",
							epoch, copies, got, stats.Migrations, stats.MigrationNTC)
					}
					if again, err := c.Deploy(scheme); err != nil || again != 0 {
						return fmt.Errorf("epoch %d: redeploy cost %d (%v), want 0", epoch, again, err)
					}
					migrated += got
					return nil
				},
			}
			if _, err := cluster.Run(p, initial, cfg); err != nil {
				t.Fatal(err)
			}
			if migrated == 0 {
				t.Fatal("no epoch migrated a replica; the comparison proved nothing")
			}
		})
	}
}

func TestLocalReadIsFree(t *testing.T) {
	p := gen(t, 3, 4, 0.05, 0.5, 3)
	c := startCluster(t, p)
	// The primary site reads its own object for free.
	k := 0
	sp := p.Primary(k)
	cost, err := c.Node(sp).Read(k)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 0 {
		t.Fatalf("local read cost %d, want 0", cost)
	}
	// A remote site pays o_k · C(i, SP_k).
	other := (sp + 1) % p.Sites()
	cost, err = c.Node(other).Read(k)
	if err != nil {
		t.Fatal(err)
	}
	if want := p.Size(k) * p.Cost(other, sp); cost != want {
		t.Fatalf("remote read cost %d, want %d", cost, want)
	}
	if c.Node(other).NTC() != cost {
		t.Fatal("node NTC accounting missed the read")
	}
}

func TestWriteBroadcastCost(t *testing.T) {
	p := gen(t, 4, 3, 0.05, 1.0, 4)
	c := startCluster(t, p)
	k := 0
	sp := p.Primary(k)
	// Replicate object k at two extra sites.
	scheme := core.NewScheme(p)
	var extras []int
	for i := 0; i < p.Sites() && len(extras) < 2; i++ {
		if i != sp && scheme.Add(i, k) == nil {
			extras = append(extras, i)
		}
	}
	if len(extras) < 2 {
		t.Skip("not enough capacity to build the scenario")
	}
	if _, err := c.Deploy(scheme); err != nil {
		t.Fatal(err)
	}
	// A write from extras[0]: ship to primary + broadcast to extras[1]
	// (the writer itself is excluded from the fan-out).
	writer := extras[0]
	cost, err := c.Node(writer).Write(k)
	if err != nil {
		t.Fatal(err)
	}
	want := p.Size(k)*p.Cost(writer, sp) + p.Size(k)*p.Cost(sp, extras[1])
	if cost != want {
		t.Fatalf("write cost %d, want %d", cost, want)
	}
}

func TestDropPrimaryRejected(t *testing.T) {
	p := gen(t, 3, 3, 0.05, 0.5, 5)
	c := startCluster(t, p)
	k := 0
	if err := c.record(p.Primary(k), message{Op: "drop", Object: k}); err == nil {
		t.Fatal("primary drop accepted")
	}
}

func TestUnknownOpAndBadObject(t *testing.T) {
	p := gen(t, 2, 2, 0.05, 0.5, 6)
	c := startCluster(t, p)
	if err := c.command(0, message{Op: "warp", Object: 0}, nil); err == nil {
		t.Fatal("unknown op accepted")
	}
	if err := c.command(0, message{Op: "read", Object: 99}, nil); err == nil {
		t.Fatal("out-of-range object accepted")
	}
}

func TestReadFromNonHolderFails(t *testing.T) {
	p := gen(t, 3, 2, 0.05, 0.5, 7)
	c := startCluster(t, p)
	k := 0
	nonHolder := (p.Primary(k) + 1) % p.Sites()
	// Give the third site a replica set naming only the non-holder and
	// read: must error loudly, not silently serve from the primary.
	reader := (nonHolder + 1) % p.Sites()
	if err := c.record(reader, message{Op: "replicas", Object: k, Sites: []int{nonHolder}}); err != nil {
		t.Fatal(err)
	}
	_, err := c.Node(reader).Read(k)
	var re *replyError
	if !errors.As(err, &re) || re.Code != codeNotHolder {
		t.Fatalf("read through a replica set naming a non-holder: %v, want a %q rejection", err, codeNotHolder)
	}
}

// A reconcile naming a site that no longer holds the object fails with
// that site's rejection code, as a write's broadcast does, instead of
// counting the site as unreachable. Reconcile itself names only holders
// behind their primary, so it ships nothing to such a site.
func TestReconcileRejectedByNonHolder(t *testing.T) {
	p := gen(t, 3, 2, 0.05, 2, 7)
	c := startCluster(t, p)
	k := 0
	sp := p.Primary(k)
	j := (sp + 1) % p.Sites()
	scheme := core.NewScheme(p)
	if err := scheme.Add(j, k); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy(scheme); err != nil {
		t.Fatal(err)
	}
	// Site j misses a write, then loses its copy behind the primary's back.
	if _, err := c.Node(sp).Store().BumpVersion(k); err != nil {
		t.Fatal(err)
	}
	if err := c.record(j, message{Op: "drop", Object: k}); err != nil {
		t.Fatal(err)
	}
	if cost, remaining, err := c.Reconcile(); err != nil || cost != 0 || remaining != 0 {
		t.Fatalf("Reconcile with no holder behind: cost %d, remaining %d, err %v; want 0, 0, nil", cost, remaining, err)
	}
	err := c.command(sp, message{Op: "reconcile", Object: k, Sites: []int{j}}, nil)
	var re *replyError
	if !errors.As(err, &re) || re.Code != codeNotHolder {
		t.Fatalf("reconcile naming a non-holder: %v; want a %q rejection", err, codeNotHolder)
	}
}

func TestConcurrentReads(t *testing.T) {
	p := gen(t, 4, 6, 0.05, 0.5, 8)
	c := startCluster(t, p)
	scheme := sra.Run(p, sra.Options{}).Scheme
	if _, err := c.Deploy(scheme); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				if _, err := c.Node(w % p.Sites()).Read(r % p.Objects()); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestListenValidation(t *testing.T) {
	p := gen(t, 2, 2, 0.05, 0.5, 9)
	if _, err := Listen(p, -1, "127.0.0.1:0"); err == nil {
		t.Fatal("negative site accepted")
	}
	if _, err := Listen(p, 0, "256.0.0.1:99999"); err == nil {
		t.Fatal("bad address accepted")
	}
}

func TestVersionsConvergeAcrossReplicas(t *testing.T) {
	p := gen(t, 5, 4, 0.1, 1.0, 10)
	c := startCluster(t, p)
	k := 0
	sp := p.Primary(k)
	scheme := core.NewScheme(p)
	for i := 0; i < p.Sites(); i++ {
		_ = scheme.Add(i, k) // replicate everywhere capacity allows
	}
	if _, err := c.Deploy(scheme); err != nil {
		t.Fatal(err)
	}
	// Issue writes from rotating sites; the primary serialises them.
	const writes = 7
	for w := 0; w < writes; w++ {
		if _, err := c.Node(w % p.Sites()).Write(k); err != nil {
			t.Fatal(err)
		}
	}
	want := c.Node(sp).Version(k)
	if want != writes {
		t.Fatalf("primary version %d, want %d", want, writes)
	}
	for i := 0; i < p.Sites(); i++ {
		if !scheme.Has(i, k) {
			continue
		}
		if got := c.Node(i).Version(k); got != want {
			t.Fatalf("replica at site %d has version %d, primary has %d", i, got, want)
		}
	}
}

func TestPlacedReplicaStartsAtPrimaryVersion(t *testing.T) {
	p := gen(t, 4, 3, 0.1, 1.0, 11)
	c := startCluster(t, p)
	k := 0
	sp := p.Primary(k)
	// Write a few times before any replication.
	for w := 0; w < 3; w++ {
		if _, err := c.Node((sp + 1) % p.Sites()).Write(k); err != nil {
			t.Fatal(err)
		}
	}
	scheme := core.NewScheme(p)
	target := (sp + 1) % p.Sites()
	if err := scheme.Add(target, k); err != nil {
		t.Skip("no capacity for the scenario")
	}
	if _, err := c.Deploy(scheme); err != nil {
		t.Fatal(err)
	}
	if got := c.Node(target).Version(k); got != 3 {
		t.Fatalf("fresh replica version %d, want 3 (the primary's)", got)
	}
}
