package fault

import (
	"bytes"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPlanCodecRoundTrip(t *testing.T) {
	p := Plan{Seed: 42, Events: []Event{
		{Kind: KindCrash, Site: 2, Step: 3, Until: 9},
		{Kind: KindRestart, Site: 2, Step: 5},
		{Kind: KindBlackhole, Site: 0, Peer: 1, Step: 1, Until: 4},
		{Kind: kindLatency, Site: 1, Step: 2, Until: 6, DelayMS: 7},
		{Kind: KindDrop, Site: 3, Peer: coordinator, Step: 1, Until: 8, Prob: 0.25},
	}}
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := parsePlan(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Errorf("round trip mutated the plan:\nin  %+v\nout %+v", p, got)
	}
}

func TestParsePlanRejectsUnknownFields(t *testing.T) {
	_, err := parsePlan([]byte(`{"seed":1,"events":[{"kind":"crash","site":0,"step":1,"unitl":5}]}`))
	if err == nil {
		t.Fatal("typo'd field accepted silently")
	}
}

func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		ev   Event
		ok   bool
	}{
		{"crash in range", Event{Kind: KindCrash, Site: 2, Step: 1, Until: 5}, true},
		{"crash site out of range", Event{Kind: KindCrash, Site: 4, Step: 1}, false},
		{"crash negative site", Event{Kind: KindCrash, Site: -1, Step: 1}, false},
		{"empty window", Event{Kind: KindCrash, Site: 0, Step: 5, Until: 5}, false},
		{"inverted window", Event{Kind: KindCrash, Site: 0, Step: 5, Until: 2}, false},
		{"negative step", Event{Kind: KindCrash, Site: 0, Step: -1}, false},
		{"blackhole coordinator leg", Event{Kind: KindBlackhole, Site: coordinator, Peer: 1, Step: 1}, true},
		{"blackhole self link", Event{Kind: KindBlackhole, Site: 1, Peer: 1, Step: 1}, false},
		{"drop prob over 1", Event{Kind: KindDrop, Site: 0, Peer: 1, Step: 1, Prob: 1.5}, false},
		{"drop prob in range", Event{Kind: KindDrop, Site: 0, Peer: coordinator, Step: 1, Prob: 0.5}, true},
		{"negative delay", Event{Kind: kindLatency, Site: 0, Step: 1, DelayMS: -3}, false},
		{"unknown kind", Event{Kind: Kind("meteor"), Site: 0, Step: 1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := Plan{Events: []Event{tc.ev}}
			err := p.validate(4)
			if tc.ok && err != nil {
				t.Errorf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Error("invalid event accepted")
			}
		})
	}
}

func TestCrashedWindowAndRestart(t *testing.T) {
	p := Plan{Events: []Event{
		{Kind: KindCrash, Site: 1, Step: 3, Until: 8},
		{Kind: KindCrash, Site: 2, Step: 5}, // open-ended
		{Kind: KindRestart, Site: 2, Step: 9},
		{Kind: KindCrash, Site: 3, Step: 2, Until: 10},
		{Kind: KindRestart, Site: 3, Step: 6}, // inside the bounded crash
		{Kind: KindRestart, Site: 4, Step: 1}, // before the crash starts
		{Kind: KindCrash, Site: 4, Step: 4, Until: 7},
		{Kind: KindRestart, Site: 0, Step: 5}, // of a site that never crashed
	}}
	for _, tc := range []struct {
		site int
		step int64
		want bool
	}{
		{1, 2, false}, {1, 3, true}, {1, 7, true}, {1, 8, false},
		{2, 4, false}, {2, 5, true}, {2, 8, true},
		{2, 9, false}, // restart cancels the open-ended crash
		{2, 100, false},
		{0, 5, false},
		// A restart inside a bounded crash ends it at the restart step.
		{3, 1, false}, {3, 2, true}, {3, 5, true}, {3, 6, false}, {3, 9, false},
		// A restart before a crash's start does not cancel the crash.
		{4, 1, false}, {4, 3, false}, {4, 4, true}, {4, 6, true}, {4, 7, false},
		// A restart of another site leaves site 1's crash as it is.
		{1, 5, true}, {1, 6, true},
	} {
		if got := p.Down(tc.site, tc.step); got != tc.want {
			t.Errorf("Down(%d, %d) = %v, want %v", tc.site, tc.step, got, tc.want)
		}
	}
}

func TestReachableAndBlackhole(t *testing.T) {
	p := Plan{Events: []Event{
		{Kind: KindBlackhole, Site: 0, Peer: 2, Step: 2, Until: 6},
		{Kind: KindCrash, Site: 3, Step: 1, Until: 4},
	}}
	if !p.blackholed(2, 0, 3) {
		t.Error("blackhole must be undirected")
	}
	if p.Reachable(0, 2, 3) || p.Reachable(2, 0, 3) {
		t.Error("blackholed link reported reachable")
	}
	if !p.Reachable(0, 2, 6) {
		t.Error("link still severed after window closed")
	}
	if p.Reachable(coordinator, 3, 2) {
		t.Error("coordinator can reach a crashed site")
	}
	if !p.Reachable(coordinator, 3, 4) {
		t.Error("coordinator cannot reach a recovered site")
	}
}

func TestDropProbComposes(t *testing.T) {
	p := Plan{Events: []Event{
		{Kind: KindDrop, Site: 0, Peer: coordinator, Step: 1, Prob: 0.5},
		{Kind: KindDrop, Site: 0, Peer: 1, Step: 1, Prob: 0.5},
	}}
	if got := p.dropProb(0, 1, 2); got != 0.75 {
		t.Errorf("independent drops should compose: got %v, want 0.75", got)
	}
	if got := p.dropProb(0, 2, 2); got != 0.5 {
		t.Errorf("only the site-wide event matches 0→2: got %v, want 0.5", got)
	}
	if got := p.dropProb(2, 3, 2); got != 0 {
		t.Errorf("unrelated link drops: got %v, want 0", got)
	}
}

func TestLatencyAtSums(t *testing.T) {
	p := Plan{Events: []Event{
		{Kind: kindLatency, Site: 0, Step: 1, Until: 5, DelayMS: 2},
		{Kind: kindLatency, Site: 1, Step: 1, Until: 5, DelayMS: 3},
	}}
	if got := p.LatencyAt(0, 1, 2); got != 5*time.Millisecond {
		t.Errorf("LatencyAt = %v, want 5ms", got)
	}
	if got := p.LatencyAt(2, 3, 2); got != 0 {
		t.Errorf("LatencyAt on calm link = %v, want 0", got)
	}
}

func TestNormalizeAlwaysValidates(t *testing.T) {
	hostile := Plan{Seed: 9, Events: []Event{
		{Kind: KindCrash, Site: 99, Step: -4, Until: -2},
		{Kind: KindBlackhole, Site: 5, Peer: 5, Step: 0},
		{Kind: KindDrop, Site: -7, Peer: 42, Step: 1, Prob: 3.5},
		{Kind: kindLatency, Site: 2, Step: 1, DelayMS: 1 << 40},
		{Kind: Kind("meteor"), Site: 0, Step: 1},
	}}
	for _, m := range []int{1, 2, 3, 8} {
		got := hostile.Normalize(m, 2*time.Millisecond)
		if err := got.validate(m); err != nil {
			t.Errorf("Normalize(%d) left an invalid plan: %v", m, err)
		}
		for _, e := range got.Events {
			if e.DelayMS > 2 {
				t.Errorf("Normalize(%d) kept a %dms delay", m, e.DelayMS)
			}
		}
	}
}

func TestMaxStep(t *testing.T) {
	p := Plan{Events: []Event{
		{Kind: KindCrash, Site: 0, Step: 3, Until: 12},
		{Kind: KindRestart, Site: 0, Step: 20},
	}}
	if got := p.MaxStep(); got != 20 {
		t.Errorf("MaxStep = %d, want 20", got)
	}
}

// TestInjectorRefusesCrashedEndpoints drives the gate directly: attempts
// to and from a crashed site fail with a transport (non-timeout) error
// while the window is open, and pass once it closes.
func TestInjectorRefusesCrashedEndpoints(t *testing.T) {
	in := NewInjector(Plan{Events: []Event{{Kind: KindCrash, Site: 1, Step: 1, Until: 3}}})
	gateTo1 := in.dialerFor(0)
	gateFrom1 := in.dialerFor(1)

	in.advance() // step 1: window open
	if err := gateTo1(1); err == nil {
		t.Fatal("attempt to crashed site passed")
	} else if ne, ok := err.(net.Error); !ok || ne.Timeout() {
		t.Fatalf("want non-timeout net.Error, got %T %v", err, err)
	}
	if err := gateFrom1(0); err == nil {
		t.Fatal("attempt from crashed site passed")
	} else if !strings.Contains(err.Error(), "down") {
		t.Fatalf("unexpected error from crashed client: %v", err)
	}

	in.AdvanceTo(3) // window closed
	if err := gateTo1(1); err != nil {
		t.Fatalf("attempt after restart failed: %v", err)
	}

	dials, refused, _, _, _ := in.Stats()
	if dials != 3 || refused != 2 {
		t.Errorf("stats dials/refused = %d/%d, want 3/2", dials, refused)
	}
}

// TestInjectorDropsAreSeeded replays the same drop plan twice and expects
// the identical accept/refuse sequence from the seeded RNG.
func TestInjectorDropsAreSeeded(t *testing.T) {
	plan := Plan{Seed: 1234, Events: []Event{{Kind: KindDrop, Site: 1, Peer: coordinator, Step: 1, Prob: 0.5}}}
	run := func() []bool {
		in := NewInjector(plan)
		gate := in.dialerFor(0)
		in.advance()
		var outcomes []bool
		for i := 0; i < 32; i++ {
			outcomes = append(outcomes, gate(1) == nil)
		}
		return outcomes
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different drop sequences")
	}
	ok := 0
	for _, v := range a {
		if v {
			ok++
		}
	}
	if ok == 0 || ok == len(a) {
		t.Errorf("p=0.5 drop produced degenerate sequence (%d/%d succeeded)", ok, len(a))
	}
}
