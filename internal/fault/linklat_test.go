package fault

import (
	"strings"
	"testing"
	"time"
)

func TestMatrixPlanBuildsLinkLatency(t *testing.T) {
	p, err := MatrixPlan([][]int64{
		{0, 5, 40},
		{5, 0, 0},
		{40, 0, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.validate(3); err != nil {
		t.Fatalf("matrix plan failed validation: %v", err)
	}
	if len(p.Events) != 2 {
		t.Fatalf("%d events, want 2 (zero-delay links emit nothing)", len(p.Events))
	}
	// The injected delay is symmetric and open-ended.
	for step := int64(0); step < 100; step += 33 {
		if d := p.LatencyAt(0, 1, step); d != 5*time.Millisecond {
			t.Fatalf("link 0↔1 at step %d: %v, want 5ms", step, d)
		}
		if d := p.LatencyAt(2, 0, step); d != 40*time.Millisecond {
			t.Fatalf("link 2↔0 at step %d: %v, want 40ms", step, d)
		}
		if d := p.LatencyAt(1, 2, step); d != 0 {
			t.Fatalf("link 1↔2 at step %d: %v, want 0", step, d)
		}
	}
}

func TestMatrixPlanRejectsBadMatrices(t *testing.T) {
	cases := []struct {
		name   string
		matrix [][]int64
		want   string
	}{
		{"ragged", [][]int64{{0, 1}, {1}}, "row 1"},
		{"negative", [][]int64{{0, -3}, {-3, 0}}, "negative latency"},
		{"asymmetric", [][]int64{{0, 1}, {2, 0}}, "asymmetric"},
		{"diagonal", [][]int64{{7}}, "diagonal"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := MatrixPlan(tc.matrix)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

func TestLinkLatencyComposesWithSiteLatency(t *testing.T) {
	p := Plan{Events: []Event{
		{Kind: kindLinkLatency, Site: 0, Peer: 1, DelayMS: 10},
		{Kind: kindLatency, Site: 0, Step: 5, Until: 10, DelayMS: 3},
	}}
	if err := p.validate(2); err != nil {
		t.Fatal(err)
	}
	if d := p.LatencyAt(0, 1, 0); d != 10*time.Millisecond {
		t.Fatalf("before the spike: %v, want 10ms", d)
	}
	if d := p.LatencyAt(0, 1, 7); d != 13*time.Millisecond {
		t.Fatalf("during the spike: %v, want 13ms (link + site)", d)
	}
	// The site-scoped spike alone covers dials not on the 0↔1 link.
	if d := p.LatencyAt(0, coordinator, 7); d != 3*time.Millisecond {
		t.Fatalf("coordinator dial during spike: %v, want 3ms", d)
	}
}

func TestLinkLatencyValidateRejectsSelfLink(t *testing.T) {
	p := Plan{Events: []Event{{Kind: kindLinkLatency, Site: 1, Peer: 1, DelayMS: 2}}}
	if err := p.validate(3); err == nil {
		t.Fatal("self-link latency event passed validation")
	}
}

func TestNormalizeKeepsLinkLatencyValid(t *testing.T) {
	p := Plan{Events: []Event{
		{Kind: kindLinkLatency, Site: 9, Peer: 9, DelayMS: -4, Step: -2},
		{Kind: kindLinkLatency, Site: -7, Peer: 2, DelayMS: 500},
	}}
	norm := p.Normalize(3, 5*time.Millisecond)
	if err := norm.validate(3); err != nil {
		t.Fatalf("Normalize left an invalid plan: %v", err)
	}
	for _, e := range norm.Events {
		if e.DelayMS > 5 {
			t.Fatalf("delay %dms exceeds the 5ms cap", e.DelayMS)
		}
	}
}
