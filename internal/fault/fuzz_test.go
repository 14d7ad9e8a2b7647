package fault

// FuzzFaultPlan feeds arbitrary bytes through the plan codec and then
// through a real 3-site TCP cluster. Two properties:
//
//  1. Codec round trip: any plan that parses re-encodes to an equal plan.
//  2. Liveness: no normalized plan may deadlock the cluster — traffic plus
//     flush and reconcile always return (possibly with degraded outcomes)
//     within a watchdog budget. Crashes, blackholes, drops and latency can
//     make requests fail; they must never make the serving loop hang.

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"drp/internal/netnode"
	"drp/internal/sra"
	"drp/internal/workload"
)

// fuzzSeeds is FuzzFaultPlan's seed corpus: one plan per event kind, a
// crash ended by a restart, overlapping windows, and a crash of site 0,
// the one non-primary replica site, after its own requests, so that other
// sites' writes leave it behind for Reconcile to re-sync.
var fuzzSeeds = []string{
	`{"seed":1,"events":[]}`,
	`{"seed":7,"events":[{"kind":"crash","site":1,"step":1,"until":9}]}`,
	`{"seed":9,"events":[{"kind":"crash","site":0,"step":2},{"kind":"restart","site":0,"step":5}]}`,
	`{"seed":3,"events":[{"kind":"blackhole","site":0,"peer":2,"step":1,"until":6},{"kind":"latency","site":1,"step":1,"until":4,"delay_ms":1}]}`,
	`{"seed":11,"events":[{"kind":"drop","site":2,"peer":-1,"step":1,"prob":0.5}]}`,
	`{"seed":13,"events":[{"kind":"linklat","site":0,"peer":2,"delay_ms":2},{"kind":"linklat","site":1,"peer":2,"step":3,"until":8,"delay_ms":1}]}`,
	`{"seed":2,"events":[{"kind":"crash","site":1,"step":1,"until":2},{"kind":"crash","site":2,"step":2,"until":3},{"kind":"blackhole","site":-1,"peer":0,"step":3,"until":4}]}`,
	`{"seed":17,"events":[{"kind":"crash","site":0,"step":134,"until":300}]}`,
}

func FuzzFaultPlan(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		plan, err := parsePlan(data)
		if err != nil {
			return // not a plan; nothing to check
		}

		// Property 1: Encode∘Parse is the identity on parsed plans.
		var buf bytes.Buffer
		if err := plan.Encode(&buf); err != nil {
			t.Fatalf("parsed plan failed to encode: %v", err)
		}
		again, err := parsePlan(buf.Bytes())
		if err != nil {
			t.Fatalf("encoded plan failed to re-parse: %v", err)
		}
		if !plansEquivalent(plan, again) {
			t.Fatalf("codec round trip mutated the plan:\nin  %+v\nout %+v", plan, again)
		}

		// Property 2: the normalized plan cannot deadlock a 3-site cluster.
		norm := plan.Normalize(3, 2*time.Millisecond)
		if err := norm.validate(3); err != nil {
			t.Fatalf("Normalize left an invalid plan: %v", err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			driveNormalizedPlan(t, norm)
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			var buf bytes.Buffer
			_ = norm.Encode(&buf)
			panic("fault plan deadlocked a 3-site cluster:\n" + buf.String())
		}
	})
}

// driveNormalizedPlan boots a real 3-site cluster under the plan and runs
// a full serve + recover cycle; every call must return.
func driveNormalizedPlan(t *testing.T, plan Plan) {
	p, err := workload.Generate(workload.NewSpec(3, 4, 0.3, 0.8), 5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := netnode.StartLocal(p)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Deploy(sra.Run(p, sra.Options{}).Scheme); err != nil {
		t.Fatal(err)
	}
	in := NewInjector(plan)
	Attach(c, in)
	c.SetRetry(2)
	c.SetRequestTimeout(time.Second)
	if _, err := c.DriveTrafficReport(); err != nil {
		t.Fatalf("traffic aborted (must degrade, not fail): %v", err)
	}
	in.AdvanceTo(plan.MaxStep())
	if _, err := c.FlushPending(); err != nil {
		t.Fatalf("flush hit a protocol error: %v", err)
	}
	// Open-ended events outlive MaxStep, so a permanently-down primary can
	// legitimately fail reconciliation with a transport error; the property
	// is that the call returns, not that it succeeds.
	_, _, _ = c.Reconcile()
}

// plansEquivalent compares plans up to JSON-invisible differences (a nil
// event slice parses back as nil).
func plansEquivalent(a, b Plan) bool {
	if a.Seed != b.Seed {
		return false
	}
	if len(a.Events) != len(b.Events) {
		return false
	}
	for i := range a.Events {
		if !reflect.DeepEqual(a.Events[i], b.Events[i]) {
			return false
		}
	}
	return true
}
