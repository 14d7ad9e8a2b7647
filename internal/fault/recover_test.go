package fault

// Kill-and-recover chaos: unlike the connectivity-only crash tests, these
// scenarios actually stop the victim process mid-measurement-period — the
// listener dies and the WAL is abandoned without a flush, the
// SIGKILL-equivalent — and restart it from its data directory at the step
// the plan's crash window closes. The recovered state must be
// byte-identical to what the node had acknowledged at the kill instant,
// and the run's accounting must still match the a-priori oracle exactly:
// the durability layer is invisible to the cost model.

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"drp/internal/core"
	"drp/internal/netnode"
	"drp/internal/sra"
	"drp/internal/store"
)

// siteBlock returns the 1-based step window [start, end] occupied by site's
// own requests in DriveTraffic's site-major order.
func siteBlock(p *core.Problem, site int) (start, end int64) {
	var before int64
	for i := 0; i < site; i++ {
		before += siteRequests(p, i)
	}
	return before + 1, before + siteRequests(p, site)
}

func siteRequests(p *core.Problem, i int) int64 {
	var total int64
	for k := 0; k < p.Objects(); k++ {
		total += p.Reads(i, k) + p.Writes(i, k)
	}
	return total
}

// pickVictim chooses the kill target: a site that replicates at least one
// object primaried elsewhere (so broadcasts to it go stale while it is
// down), preferring one that also primaries an object (so writes to that
// object queue at their writers). Early sites are preferred so the crash
// window fits after the victim's own request block.
func pickVictim(p *core.Problem, s *core.Scheme) int {
	best := -1
	for i := 0; i < p.Sites(); i++ {
		replicates := false
		for k := 0; k < p.Objects(); k++ {
			if s.Has(i, k) && p.Primary(k) != i {
				replicates = true
				break
			}
		}
		if !replicates {
			continue
		}
		if best < 0 {
			best = i
		}
		for k := 0; k < p.Objects(); k++ {
			if p.Primary(k) == i {
				return i
			}
		}
	}
	return best
}

// recoverOutcome captures everything a kill-and-recover run must reproduce.
type recoverOutcome struct {
	killed    []byte // victim state at the kill instant
	recovered []byte // victim state right after replay
	rep       netnode.TrafficReport
	flush     int64
	reconcile int64
	versions  []int64
	ntc       []int64
}

// runKillRecover drives one measurement period over a durable cluster,
// really killing the victim at the crash window's first step and
// restarting it from disk at the window's close, then runs recovery and
// returns the full outcome. All exact-oracle assertions happen here.
func runKillRecover(t *testing.T, p *core.Problem, scheme *core.Scheme, victim int, killStep, restartStep int64) *recoverOutcome {
	t.Helper()
	plan := Plan{Seed: 17, Events: []Event{
		{Kind: KindCrash, Site: victim, Step: killStep, Until: restartStep},
	}}
	if err := plan.validate(p.Sites()); err != nil {
		t.Fatal(err)
	}
	dumpOnFailure(t, plan)

	c, err := netnode.StartDurable(p, t.TempDir(), store.Options{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if _, err := c.Deploy(scheme); err != nil {
		t.Fatal(err)
	}
	in := NewInjector(plan)
	Attach(c, in)
	c.SetRetry(3)
	c.SetRequestTimeout(2 * time.Second)

	out := &recoverOutcome{}
	// The request hook advances the injector's clock and, in lockstep,
	// performs the real kill and the real restart at the steps the plan
	// models — so the modeled reachability and the actual process state
	// agree at every step.
	var step int64
	c.SetRequestHook(func() {
		step++
		switch step {
		case killStep:
			if err := c.Node(victim).Kill(); err != nil {
				t.Errorf("kill: %v", err)
			}
			out.killed = c.Node(victim).Store().EncodeState()
		case restartStep:
			node, err := c.RestartNode(victim)
			if err != nil {
				t.Errorf("restart: %v", err)
				break
			}
			out.recovered = node.Store().EncodeState()
		}
		in.advance()
	})

	want := predict(p, scheme, plan)
	rep, err := c.DriveTrafficReport()
	if err != nil {
		t.Fatal(err)
	}
	out.rep = *rep

	if out.killed == nil || out.recovered == nil {
		t.Fatalf("kill/restart hooks did not both fire (steps %d/%d of %d)", killStep, restartStep, step)
	}
	if !bytes.Equal(out.recovered, out.killed) {
		t.Errorf("recovered state differs from the state acknowledged at the kill:\n killed    %s\n recovered %s", out.killed, out.recovered)
	}
	if !c.Node(victim).Store().Recovered() {
		t.Error("restarted victim reports no recovered state")
	}

	if rep.NTC != want.ntc {
		t.Errorf("accounted NTC %d, a-priori surviving-replica cost %d", rep.NTC, want.ntc)
	}
	if rep.Reads != want.reads || rep.FailedReads != want.failedReads {
		t.Errorf("reads served/failed %d/%d, want %d/%d", rep.Reads, rep.FailedReads, want.reads, want.failedReads)
	}
	if rep.Writes != want.writes || rep.QueuedWrites != want.queuedWrites {
		t.Errorf("writes served/queued %d/%d, want %d/%d", rep.Writes, rep.QueuedWrites, want.writes, want.queuedWrites)
	}

	in.AdvanceTo(plan.MaxStep())
	out.flush, err = c.FlushPending()
	if err != nil {
		t.Fatal(err)
	}
	if out.flush != want.flushNTC {
		t.Errorf("flush NTC %d, want %d", out.flush, want.flushNTC)
	}
	if left := c.PendingWrites(); left != 0 {
		t.Errorf("%d writes still queued after flush", left)
	}
	var remaining int
	out.reconcile, remaining, err = c.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if out.reconcile != want.reconcileNTC {
		t.Errorf("reconcile NTC %d, want %d", out.reconcile, want.reconcileNTC)
	}
	if remaining != 0 {
		t.Errorf("%d replicas still stale after reconcile", remaining)
	}

	// Version reconvergence, including at the restarted victim: replicas
	// match their primary, and every primary serialised exactly the
	// modelled number of writes.
	for k := 0; k < p.Objects(); k++ {
		sp := p.Primary(k)
		if got := c.Node(sp).Version(k); got != want.versions[k] {
			t.Errorf("object %d: primary version %d, want %d", k, got, want.versions[k])
		}
		for _, j := range scheme.Replicators(k) {
			if got := c.Node(j).Version(k); got != want.versions[k] {
				t.Errorf("object %d: replica at site %d has version %d, primary has %d", k, j, got, want.versions[k])
			}
		}
		out.versions = append(out.versions, want.versions[k])
	}
	for i := 0; i < p.Sites(); i++ {
		out.ntc = append(out.ntc, c.Node(i).NTC())
	}
	return out
}

// killRecoverScenario derives the victim and a crash window that avoids
// the victim's own request block (a down site issues no traffic; the
// oracle and the real run agree on that) while leaving restart inside the
// measurement period so the hook can fire it.
func killRecoverScenario(t *testing.T, p *core.Problem, scheme *core.Scheme) (victim int, killStep, restartStep int64) {
	t.Helper()
	total := totalRequests(p)
	victim = pickVictim(p, scheme)
	if victim < 0 {
		t.Skip("SRA placed no secondary replicas; nothing to kill")
	}
	_, blockEnd := siteBlock(p, victim)
	killStep, restartStep = blockEnd+1, total
	if killStep >= restartStep {
		t.Skipf("victim %d's own requests span to step %d of %d; no room for a crash window", victim, blockEnd, total)
	}
	return victim, killStep, restartStep
}

// TestKillAndRecoverExactNTC is the tentpole's headline: a mid-burst
// SIGKILL-equivalent stop, a WAL replay restart, byte-identical recovered
// state, and the exact a-priori NTC, flush, reconcile and version
// assertions all holding across the real kill.
func TestKillAndRecoverExactNTC(t *testing.T) {
	p := genProblem(t, 6, 8, 0.25, 0.9, 41)
	scheme := sra.Run(p, sra.Options{}).Scheme
	victim, killStep, restartStep := killRecoverScenario(t, p, scheme)
	out := runKillRecover(t, p, scheme, victim, killStep, restartStep)
	if out.rep.FailedReads == 0 && out.rep.QueuedWrites == 0 && out.rep.NTC == scheme.Cost() {
		t.Errorf("kill window injected no observable fault (NTC %d == eq.4 D); the scenario is vacuous", out.rep.NTC)
	}
}

// TestKillAndRecoverDeterministic runs the identical scenario twice in
// fresh directories: same seed + same crash schedule must give
// byte-identical killed and recovered states and identical accounting.
func TestKillAndRecoverDeterministic(t *testing.T) {
	p := genProblem(t, 5, 6, 0.25, 0.8, 42)
	scheme := sra.Run(p, sra.Options{}).Scheme
	victim, killStep, restartStep := killRecoverScenario(t, p, scheme)

	a := runKillRecover(t, p, scheme, victim, killStep, restartStep)
	b := runKillRecover(t, p, scheme, victim, killStep, restartStep)
	if !bytes.Equal(a.killed, b.killed) {
		t.Errorf("killed states differ across identically seeded runs:\n %s\n %s", a.killed, b.killed)
	}
	if !bytes.Equal(a.recovered, b.recovered) {
		t.Errorf("recovered states differ across identically seeded runs:\n %s\n %s", a.recovered, b.recovered)
	}
	if a.rep != b.rep {
		t.Errorf("reports differ: %+v vs %+v", a.rep, b.rep)
	}
	if a.flush != b.flush || a.reconcile != b.reconcile {
		t.Errorf("recovery costs differ: flush %d vs %d, reconcile %d vs %d", a.flush, b.flush, a.reconcile, b.reconcile)
	}
	for i := range a.ntc {
		if a.ntc[i] != b.ntc[i] {
			t.Errorf("site %d NTC differs: %d vs %d", i, a.ntc[i], b.ntc[i])
		}
	}
}

// TestKillAndRecoverWithSnapshots reruns the headline scenario with
// aggressive automatic snapshotting, so the victim recovers from a
// snapshot plus a log tail instead of a pure replay — the outcome must be
// identical either way.
func TestKillAndRecoverWithSnapshots(t *testing.T) {
	p := genProblem(t, 6, 8, 0.25, 0.9, 41)
	scheme := sra.Run(p, sra.Options{}).Scheme
	victim, killStep, restartStep := killRecoverScenario(t, p, scheme)
	plan := Plan{Seed: 17, Events: []Event{
		{Kind: KindCrash, Site: victim, Step: killStep, Until: restartStep},
	}}

	run := func(opts store.Options) *netnode.TrafficReport {
		c, err := netnode.StartDurable(p, t.TempDir(), opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		if _, err := c.Deploy(scheme); err != nil {
			t.Fatal(err)
		}
		in := NewInjector(plan)
		Attach(c, in)
		c.SetRetry(3)
		c.SetRequestTimeout(2 * time.Second)
		var killed []byte
		var step int64
		c.SetRequestHook(func() {
			step++
			switch step {
			case killStep:
				_ = c.Node(victim).Kill()
				killed = c.Node(victim).Store().EncodeState()
			case restartStep:
				node, err := c.RestartNode(victim)
				if err != nil {
					t.Errorf("restart: %v", err)
					break
				}
				if got := node.Store().EncodeState(); !bytes.Equal(got, killed) {
					t.Errorf("snapshot recovery differs from killed state:\n killed    %s\n recovered %s", killed, got)
				}
			}
			in.advance()
		})
		rep, err := c.DriveTrafficReport()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	plain := run(store.Options{Sync: store.SyncNever})
	snappy := run(store.Options{Sync: store.SyncNever, SnapshotEvery: 8})
	if *plain != *snappy {
		t.Errorf("snapshotting changed the observable run:\n plain %+v\n snap  %+v", *plain, *snappy)
	}
}

// TestRestartedSiteStaysUnderPlan: a site restarted from its data
// directory keeps the gate Attach gave it, with nothing installed again.
// Its read of an object whose nearest replica is crashed fails over to
// the farther one, and a crash of the restarted site refuses the reads
// other sites send it.
func TestRestartedSiteStaysUnderPlan(t *testing.T) {
	p := genProblem(t, 5, 6, 0.2, 0.6, 31)
	// The restarted site is the primary of object own, which it alone
	// holds. Object k, primaried at near, gets a second replica at far,
	// which costs the restarted site more to read from.
	own := 0
	restarted := p.Primary(own)
	k, near, far := -1, -1, -1
	for obj := 0; obj < p.Objects() && k < 0; obj++ {
		sp := p.Primary(obj)
		for q := 0; q < p.Sites() && sp != restarted && k < 0; q++ {
			if q != restarted && q != sp && p.Cost(restarted, q) > p.Cost(restarted, sp) {
				k, near, far = obj, sp, q
			}
		}
	}
	if k < 0 {
		t.Fatal("the instance has no object for the restarted site to fail over")
	}
	reader := (restarted + 1) % p.Sites()
	scheme := core.NewScheme(p)
	if err := scheme.Add(far, k); err != nil {
		t.Fatal(err)
	}
	plan := Plan{Events: []Event{
		{Kind: KindCrash, Site: near, Step: 1, Until: 2},
		{Kind: KindCrash, Site: restarted, Step: 2, Until: 3},
	}}
	if err := plan.validate(p.Sites()); err != nil {
		t.Fatal(err)
	}
	c, err := netnode.StartDurable(p, t.TempDir(), store.Options{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if _, err := c.Deploy(scheme); err != nil {
		t.Fatal(err)
	}
	in := NewInjector(plan)
	Attach(c, in)
	if _, err := c.RestartNode(restarted); err != nil {
		t.Fatal(err)
	}

	in.AdvanceTo(1)
	cost, err := c.Node(restarted).Read(k)
	if err != nil {
		t.Fatalf("read of object %d with site %d down: %v", k, near, err)
	}
	if want := p.Size(k) * p.Cost(restarted, far); cost != want {
		t.Fatalf("read of object %d with site %d down cost %d, want %d: the failover to site %d", k, near, cost, want, far)
	}

	in.AdvanceTo(2)
	if _, err := c.Node(reader).Read(own); !errors.Is(err, netnode.ErrNoReplica) {
		t.Fatalf("read of object %d from site %d with site %d down: %v, want %v", own, reader, restarted, err, netnode.ErrNoReplica)
	}

	in.AdvanceTo(3)
	cost, err = c.Node(reader).Read(own)
	if want := p.Size(own) * p.Cost(reader, restarted); err != nil || cost != want {
		t.Fatalf("read of object %d after the crash: cost %d, %v; want %d", own, cost, err, want)
	}
}
