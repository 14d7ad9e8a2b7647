package fault

// The fault seam is the attempt, not the connection: with links warm
// between every pair of sites, a modelled crash, blackhole or drop still
// fails the attempt — with the texts span files and reports quote — and
// the same links carry the traffic once the window closes.

import (
	"fmt"
	"testing"

	"drp/internal/core"
	"drp/internal/metrics"
	"drp/internal/netnode"
)

func TestGateFailsAttemptsOnWarmLinks(t *testing.T) {
	p := genProblem(t, 5, 6, 0.2, 0.6, 31)
	total := totalRequests(p)
	// Object k is read by a site that holds no replica of it, so the read
	// has exactly one place to go: the primary.
	const k = 0
	holder := p.Primary(k)
	reader := (holder + 1) % p.Sites()
	crash, hole, drop, clear := total+1, total+2, total+3, total+4
	plan := Plan{Seed: 5, Events: []Event{
		{Kind: KindCrash, Site: holder, Step: crash, Until: hole},
		{Kind: KindBlackhole, Site: reader, Peer: holder, Step: hole, Until: drop},
		{Kind: KindDrop, Site: holder, Peer: coordinator, Step: drop, Until: clear, Prob: 1},
	}}
	c, in := chaosCluster(t, p, core.NewScheme(p), plan)
	reg := metrics.NewRegistry()
	c.EnableMetrics(reg)
	opened := reg.Counter("drp_net_dials_total", "", nil)

	// One clean measurement period opens the links.
	rep, err := c.DriveTrafficReport()
	if err != nil {
		t.Fatal(err)
	}
	if rep.NTC != p.DPrime() || rep.FailedReads != 0 || rep.QueuedWrites != 0 {
		t.Fatalf("warm period degraded: %+v, want NTC %d", rep, p.DPrime())
	}
	warm := opened.Value()
	if warm == 0 {
		t.Fatal("the warm period opened no connection; the scenario is vacuous")
	}
	dials0, _, _, _, _ := in.Stats()

	addr := c.Node(holder).Addr()
	for _, tc := range []struct {
		step int64
		text string
	}{
		{crash, fmt.Sprintf("fault: site %d is down (step %d)", holder, crash)},
		{hole, fmt.Sprintf("fault: link %d↔%d blackholed (step %d)", reader, holder, hole)},
		{drop, fmt.Sprintf("fault: message %d→%d dropped (step %d)", reader, holder, drop)},
	} {
		in.AdvanceTo(tc.step)
		_, err := c.Node(reader).Read(k)
		want := fmt.Sprintf("%v for object %d: netnode: dial %s: %s", netnode.ErrNoReplica, k, addr, tc.text)
		if err == nil || err.Error() != want {
			t.Errorf("step %d: read error\n got %v\nwant %s", tc.step, err, want)
		}
	}

	in.AdvanceTo(clear)
	cost, err := c.Node(reader).Read(k)
	if err != nil {
		t.Fatalf("read after the windows closed: %v", err)
	}
	if want := p.Size(k) * p.Cost(reader, holder); cost != want {
		t.Errorf("read after the windows closed cost %d, want %d", cost, want)
	}
	if got := opened.Value() - warm; got != 0 {
		t.Errorf("%d connections opened after the warm period; the faults were to hit warm links and the traffic to resume on them", got)
	}
	// Three attempts per faulted read (the cluster's retry policy), one for
	// the read that went through.
	dials, refused, severed, dropped, delayed := in.Stats()
	if got, want := [5]int64{dials - dials0, refused, severed, dropped, delayed}, [5]int64{10, 3, 3, 3, 0}; got != want {
		t.Errorf("injector outcomes after the warm period %v, want %v", got, want)
	}
}
