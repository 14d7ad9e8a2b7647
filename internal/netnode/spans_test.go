package netnode

import (
	"testing"

	"drp/internal/spans"
	"drp/internal/sra"
	"drp/internal/store"
)

// TestTracedDeployAndRequests walks one traced deploy-read-write cycle
// over real TCP and checks the shape the analyzer depends on: the deploy
// trace sums to the migration NTC, a remote read stitches serve spans
// under the exact rpc attempt that reached the replica, and a write trace
// sums to the accounted write cost.
func TestTracedDeployAndRequests(t *testing.T) {
	p := gen(t, 4, 3, 0.1, 0.8, 9)
	c := startCluster(t, p)
	col := &spans.Collector{}
	c.EnableTracing(spans.New(col))

	scheme := sra.Run(p, sra.Options{}).Scheme
	migration, err := c.Deploy(scheme)
	if err != nil {
		t.Fatal(err)
	}
	traces := spans.Assemble(col.Spans())
	if len(traces) != 1 || traces[0].Root().Name != "deploy" {
		t.Fatalf("deploy produced %d traces, want one deploy root", len(traces))
	}
	if got := traces[0].NTC(); got != migration {
		t.Fatalf("deploy trace NTC %d, want migration cost %d", got, migration)
	}
	col.Reset()

	// A read from a non-replica site must traverse the wire: the trace
	// needs an rpc.read attempt with a serve.read child.
	k := 0
	reader := -1
	for i := 0; i < p.Sites(); i++ {
		if !scheme.Has(i, k) {
			reader = i
			break
		}
	}
	if reader < 0 {
		t.Skip("scheme replicates object 0 everywhere; no remote read possible")
	}
	cost, err := c.Node(reader).Read(k)
	if err != nil {
		t.Fatal(err)
	}
	traces = spans.Assemble(col.Spans())
	if len(traces) != 1 {
		t.Fatalf("read produced %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.Root().Name != "read" {
		t.Fatalf("root span %q, want read", tr.Root().Name)
	}
	if got := tr.NTC(); got != cost {
		t.Fatalf("read trace NTC %d, want accounted cost %d", got, cost)
	}
	var attempt, serve bool
	tr.Walk(func(ts *spans.TreeSpan) {
		switch ts.Name {
		case "rpc.read":
			attempt = true
			for _, ch := range ts.Children {
				if ch.Name == "serve.read" {
					serve = true
				}
			}
		}
	})
	if !attempt || !serve {
		t.Fatalf("remote read trace missing rpc.read attempt (%v) or stitched serve.read child (%v)", attempt, serve)
	}
	col.Reset()

	writer := (p.Primary(k) + 1) % p.Sites()
	wcost, err := c.Node(writer).Write(k)
	if err != nil {
		t.Fatal(err)
	}
	traces = spans.Assemble(col.Spans())
	if len(traces) != 1 || traces[0].Root().Name != "write" {
		t.Fatalf("write produced %d traces, want one write root", len(traces))
	}
	if got := traces[0].NTC(); got != wcost {
		t.Fatalf("write trace NTC %d, want accounted cost %d", got, wcost)
	}
}

// TestTracingSamplingAndRestart checks that sampling drops whole request
// trees (no half-traced requests) and that a restarted node keeps the
// cluster's tracer.
func TestTracingSamplingAndRestart(t *testing.T) {
	p := gen(t, 3, 2, 0.1, 0.8, 5)
	c, err := StartDurable(p, t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	scheme := sra.Run(p, sra.Options{}).Scheme
	if _, err := c.Deploy(scheme); err != nil {
		t.Fatal(err)
	}
	col := &spans.Collector{}
	tr := spans.New(col)
	tr.SetSample(3)
	c.EnableTracing(tr)

	for i := 0; i < 9; i++ {
		if _, err := c.Node(i % p.Sites()).Read(0); err != nil {
			t.Fatal(err)
		}
	}
	traces := spans.Assemble(col.Spans())
	if len(traces) != 3 {
		t.Fatalf("sample=3 kept %d traces of 9 reads, want 3", len(traces))
	}
	for _, tt := range traces {
		if len(tt.Roots) != 1 || tt.Root().Name != "read" {
			t.Fatalf("sampled trace is not a single read tree")
		}
	}

	if _, err := c.RestartNode(0); err != nil {
		t.Fatal(err)
	}
	col.Reset()
	tr.SetSample(1)
	if _, err := c.Node(0).Read(0); err != nil {
		t.Fatal(err)
	}
	if len(col.Spans()) == 0 {
		t.Fatal("restarted node lost the cluster tracer")
	}
}
