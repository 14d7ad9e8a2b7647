package fault

// Span-tree invariants under chaos: the tracing subsystem must describe the
// faulty run exactly. Every client request mints exactly one root span,
// children nest strictly inside their parents even when stitched across the
// wire, and — the tracing twin of the headline NTC assertion — the summed
// per-span NTC of each phase equals the phase's accounted transfer cost to
// the unit. Two identical seeded runs must serialise to identical bytes.

import (
	"bytes"
	"testing"

	"drp/internal/core"
	"drp/internal/netnode"
	"drp/internal/spans"
	"drp/internal/sra"
)

// tracedChaos runs the full chaos scenario (traffic, then flush and
// reconcile past the fault horizon) on a freshly booted cluster with a
// collector-backed tracer attached after deploy, so the spans cover
// exactly the request phases.
type tracedChaos struct {
	rep          *netnode.TrafficReport
	flushNTC     int64
	reconcileNTC int64
	behind       int // objects with a holder behind its primary before Reconcile
	spans        []spans.Span
}

func runTracedChaos(t *testing.T, p *core.Problem, scheme *core.Scheme, plan Plan) *tracedChaos {
	t.Helper()
	c, in := chaosCluster(t, p, scheme, plan)
	col := &spans.Collector{}
	c.EnableTracing(spans.New(col))

	rep, err := c.DriveTrafficReport()
	if err != nil {
		t.Fatal(err)
	}
	in.AdvanceTo(plan.MaxStep())
	flushNTC, err := c.FlushPending()
	if err != nil {
		t.Fatal(err)
	}
	_, _, objects := behind(t, c, p)
	recNTC, remaining, err := c.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if remaining != 0 {
		t.Fatalf("%d replicas still stale after reconcile", remaining)
	}
	return &tracedChaos{rep: rep, flushNTC: flushNTC, reconcileNTC: recNTC, behind: objects, spans: col.Spans()}
}

func chaosSpanPlan(p *core.Problem) Plan {
	total := totalRequests(p)
	return Plan{Seed: 11, Events: []Event{
		{Kind: KindCrash, Site: p.Primary(0), Step: total / 3, Until: 2 * total / 3},
		{Kind: KindCrash, Site: (p.Primary(0) + 1) % p.Sites(), Step: 1, Until: total / 2},
	}}
}

// chaosBehindSpanPlan keeps chaosSpanPlan's crash of object 0's primary,
// which queues writes, and crashes site 1 from the middle of the traffic to
// its end: writes by later sites' blocks broadcast past it, and on one
// object no flushed write catches it up, so Reconcile has a holder to
// re-sync.
func chaosBehindSpanPlan(p *core.Problem) Plan {
	total := totalRequests(p)
	return Plan{Seed: 12, Events: []Event{
		{Kind: KindCrash, Site: p.Primary(0), Step: total / 3, Until: 2 * total / 3},
		{Kind: KindCrash, Site: 1, Step: total / 2, Until: total},
	}}
}

// spanCase is one plan of the span suite; behind says it must leave a
// holder behind its primary for Reconcile.
type spanCase struct {
	name   string
	plan   Plan
	behind bool
}

func spanCases(p *core.Problem) []spanCase {
	return []spanCase{
		{"spans", chaosSpanPlan(p), false},
		{"spans-behind", chaosBehindSpanPlan(p), true},
	}
}

// TestChaosSpanTreeInvariants asserts the three structural guarantees of
// the span model over each span plan's faulty run: one root per client
// request, strict parent/child nesting, and phase-exact NTC attribution.
// The second plan must leave a holder behind, so the reconcile phase's
// roots and NTC are compared on real spans.
func TestChaosSpanTreeInvariants(t *testing.T) {
	p := genProblem(t, 6, 8, 0.15, 0.9, 21)
	scheme := sra.Run(p, sra.Options{}).Scheme
	for _, sc := range spanCases(p) {
		t.Run(sc.name, func(t *testing.T) {
			res := runTracedChaos(t, p, scheme, sc.plan)
			if sc.behind && res.behind == 0 {
				t.Error("plan left no holder behind its primary; the reconcile checks are vacuous")
			}
			checkSpanTree(t, res)
		})
	}
}

// checkSpanTree checks one traced chaos run: one root per client request
// and per object re-synced, strict nesting, phase-exact NTC and a crashed
// verdict.
func checkSpanTree(t *testing.T, res *tracedChaos) {
	t.Helper()
	traces := spans.Assemble(res.spans)
	roots := map[string]int64{}
	ntcByRoot := map[string]int64{}
	for _, tr := range traces {
		if len(tr.Roots) != 1 {
			t.Fatalf("trace %s has %d roots (orphaned spans)", tr.ID, len(tr.Roots))
		}
		root := tr.Root()
		roots[root.Name]++
		ntcByRoot[root.Name] += tr.NTC()
		tr.Walk(func(ts *spans.TreeSpan) {
			if ts.End < ts.Start {
				t.Fatalf("span %s %q ends before it starts", ts.ID, ts.Name)
			}
			if ts.NTC < 0 {
				t.Fatalf("span %s %q has negative NTC", ts.ID, ts.Name)
			}
			for _, ch := range ts.Children {
				if ch.Start <= ts.Start || ch.End >= ts.End {
					t.Fatalf("child %s %q [%d,%d] does not nest strictly inside %s %q [%d,%d]",
						ch.ID, ch.Name, ch.Start, ch.End, ts.ID, ts.Name, ts.Start, ts.End)
				}
			}
		})
	}

	rep := res.rep
	if got, want := roots["read"], rep.Reads+rep.FailedReads; got != want {
		t.Errorf("read roots %d, want one per issued read %d", got, want)
	}
	if got, want := roots["write"], rep.Writes+rep.QueuedWrites; got != want {
		t.Errorf("write roots %d, want one per issued write %d", got, want)
	}
	if got, want := roots["reconcile"], int64(res.behind); got != want {
		t.Errorf("reconcile roots %d, want one per object with a holder behind its primary, %d", got, want)
	}
	if rep.QueuedWrites == 0 {
		t.Error("plan queued no writes; the flush phase is vacuous")
	}

	// Phase-exact NTC: summed span NTC == accounted transfer cost, to the
	// unit, per phase.
	if got, want := ntcByRoot["read"]+ntcByRoot["write"], rep.NTC; got != want {
		t.Errorf("traffic span NTC %d, accounted NTC %d", got, want)
	}
	if got, want := ntcByRoot["write.flush"], res.flushNTC; got != want {
		t.Errorf("flush span NTC %d, accounted flush NTC %d", got, want)
	}
	if got, want := ntcByRoot["reconcile"], res.reconcileNTC; got != want {
		t.Errorf("reconcile span NTC %d, accounted reconcile NTC %d", got, want)
	}

	// Fault verdicts surface: the crashed-site plan must have produced at
	// least one classified span (crashed replicas during reads or writes).
	verdicts := 0
	for _, s := range res.spans {
		if s.Verdict == "crashed" {
			verdicts++
		}
	}
	if verdicts == 0 {
		t.Error("no span carries a crashed verdict despite crash events in the plan")
	}
}

// TestChaosSpansByteDeterministic reruns each span plan's scenario twice with
// fresh tracers and requires the encoded span streams to match byte for
// byte — logical clocks and redacted addresses make wall time and
// ephemeral ports invisible.
func TestChaosSpansByteDeterministic(t *testing.T) {
	p := genProblem(t, 6, 8, 0.15, 0.9, 21)
	scheme := sra.Run(p, sra.Options{}).Scheme
	for _, sc := range spanCases(p) {
		t.Run(sc.name, func(t *testing.T) {
			encode := func() []byte {
				res := runTracedChaos(t, p, scheme, sc.plan)
				var buf bytes.Buffer
				if err := spans.Encode(&buf, res.spans); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			a, b := encode(), encode()
			if !bytes.Equal(a, b) {
				t.Fatalf("span streams differ across identical runs:\nrun A %d bytes, run B %d bytes", len(a), len(b))
			}
			if len(a) == 0 {
				t.Fatal("empty span stream")
			}
		})
	}
}
