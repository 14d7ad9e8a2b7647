package spans

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestNilTracerAndSpanAreNoOps(t *testing.T) {
	var tr *Tracer
	root := tr.Root("read")
	if root != nil {
		t.Fatalf("nil tracer minted a span")
	}
	// Every method must be callable on the nil span.
	child := root.Child("hop")
	if child != nil {
		t.Fatalf("nil span minted a child")
	}
	root.SetSite(1)
	root.SetPeer(2)
	root.SetObject(3)
	root.SetHop(0)
	root.SetAttempt(1)
	root.SetNTC(7)
	root.SetErrText("boom")
	root.SetVerdict("x")
	root.SetAttr("k", "v")
	root.Finish()
	if trace, span := root.Context(); trace != "" || span != "" {
		t.Fatalf("nil span leaked wire context %q/%q", trace, span)
	}
	if root.Dur() != 0 {
		t.Fatalf("nil span has duration")
	}
}

func TestTracerMintsDeterministicTree(t *testing.T) {
	run := func() []Span {
		col := &Collector{}
		tr := New(col)
		root := tr.Root("read")
		root.SetSite(2)
		root.SetObject(5)
		hop := root.Child("read.hop")
		hop.SetPeer(4)
		hop.SetHop(0)
		att := hop.Child("rpc.read")
		att.SetAttempt(0)
		att.Finish()
		hop.SetNTC(35)
		hop.Finish()
		root.Finish()
		return col.Spans()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical runs diverged:\n%v\n%v", a, b)
	}
	if len(a) != 3 {
		t.Fatalf("want 3 spans, got %d", len(a))
	}
	// Export order is finish order: leaf first, root last.
	if a[0].Name != "rpc.read" || a[2].Name != "read" {
		t.Fatalf("unexpected export order: %v", []string{a[0].Name, a[1].Name, a[2].Name})
	}
	// Children nest strictly inside parents under the logical clock.
	byID := map[string]Span{}
	for _, s := range a {
		byID[s.ID] = s
	}
	for _, s := range a {
		if s.Parent == "" {
			continue
		}
		p := byID[s.Parent]
		if s.Start <= p.Start || s.End >= p.End {
			t.Fatalf("span %s [%d,%d] not nested in parent %s [%d,%d]",
				s.ID, s.Start, s.End, p.ID, p.Start, p.End)
		}
		if s.Trace != p.Trace {
			t.Fatalf("child changed trace")
		}
	}
}

func TestSamplingKeepsEveryNth(t *testing.T) {
	col := &Collector{}
	tr := New(col)
	tr.SetSample(3)
	kept := 0
	for i := 0; i < 10; i++ {
		if sp := tr.Root("read"); sp != nil {
			kept++
			sp.Finish()
		}
	}
	if kept != 4 { // requests 0,3,6,9
		t.Fatalf("sample 1/3 over 10 roots kept %d, want 4", kept)
	}
	// Trace IDs stay dense over the kept roots.
	for i, s := range col.Spans() {
		want := "t" + string(rune('1'+i))
		if s.Trace != want {
			t.Fatalf("trace %d = %s, want %s", i, s.Trace, want)
		}
	}
}

func TestRemoteStitching(t *testing.T) {
	col := &Collector{}
	tr := New(col)
	root := tr.Root("write")
	att := root.Child("rpc.update")
	trace, span := att.Context()
	sv := tr.StartRemote(trace, span, "serve.update")
	sv.Finish()
	att.Finish()
	root.Finish()
	sps := col.Spans()
	if len(sps) != 3 {
		t.Fatalf("want 3 spans, got %d", len(sps))
	}
	if sps[0].Name != "serve.update" || sps[0].Parent != span || sps[0].Trace != trace {
		t.Fatalf("serve span not stitched under wire context: %+v", sps[0])
	}
	// No wire context → no server span.
	if tr.StartRemote("", "", "serve.read") != nil {
		t.Fatalf("StartRemote without context minted a span")
	}
}

func TestRedactAndClassify(t *testing.T) {
	col := &Collector{}
	tr := New(col)
	sp := tr.Root("read")
	sp.SetErrText("netnode: dial 127.0.0.1:40123: fault: dial 127.0.0.1:40123: site 3 is down (step 12)")
	sp.Finish()
	got := col.Spans()[0]
	if strings.Contains(got.Err, "40123") {
		t.Fatalf("ephemeral port survived redaction: %q", got.Err)
	}
	if !strings.Contains(got.Err, "addr") || !strings.Contains(got.Err, "site 3 is down (step 12)") {
		t.Fatalf("redaction mangled the message: %q", got.Err)
	}
	if got.Verdict != "crashed" {
		t.Fatalf("verdict = %q, want crashed", got.Verdict)
	}
	cases := map[string]string{
		"fault: link 1↔2 blackholed (step 3)":    "blackholed",
		"fault: message 1→2 dropped (step 3)":    "dropped",
		"fault: something new":                   "fault",
		"netnode: read object 3: no live holder": "",
	}
	for msg, want := range cases {
		if got := classify(msg); got != want {
			t.Fatalf("classify(%q) = %q, want %q", msg, got, want)
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	col := &Collector{}
	tr := New(col)
	root := tr.Root("read")
	root.SetSite(0) // site 0 must survive the round trip (no omitempty)
	root.SetObject(0)
	hop := root.Child("read.hop")
	hop.SetPeer(3)
	hop.SetNTC(12)
	hop.SetAttr("k", "v")
	hop.Finish()
	root.Finish()
	orig := col.Spans()

	var buf bytes.Buffer
	if err := Encode(&buf, orig); err != nil {
		t.Fatalf("encode: %v", err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(orig, back) {
		t.Fatalf("round trip diverged:\n%v\n%v", orig, back)
	}
	if !strings.Contains(buf.String(), `"site":0`) {
		// buf was consumed by Decode; re-encode to check the bytes.
		var buf2 bytes.Buffer
		_ = Encode(&buf2, orig)
		if !strings.Contains(buf2.String(), `"site":0`) {
			t.Fatalf("zero-valued site dropped from the wire form: %s", buf2.String())
		}
	}
}

func TestDecodeRejectsMalformedSpans(t *testing.T) {
	bad := []string{
		`{"trace":"","span":"s1","name":"x","site":-1,"peer":-1,"obj":-1,"hop":-1,"attempt":-1}`,
		`{"trace":"t1","span":"","name":"x","site":-1,"peer":-1,"obj":-1,"hop":-1,"attempt":-1}`,
		`{"trace":"t1","span":"s1","name":"","site":-1,"peer":-1,"obj":-1,"hop":-1,"attempt":-1}`,
		`{"trace":"t1","span":"s1","name":"x","start":5,"end":4,"site":-1,"peer":-1,"obj":-1,"hop":-1,"attempt":-1}`,
		`{"trace":"t1","span":"s1","name":"x","ntc":-2,"site":-1,"peer":-1,"obj":-1,"hop":-1,"attempt":-1}`,
		`{"trace":"t1","span":"s1","name":"x","site":-7,"peer":-1,"obj":-1,"hop":-1,"attempt":-1}`,
		`{"trace":"t1","span":"s1","name":"x"} {"extra":1}`,
		`not json`,
	}
	for _, line := range bad {
		if _, err := Decode(strings.NewReader(line)); err == nil {
			t.Fatalf("decode accepted malformed line %q", line)
		}
	}
}

func TestAssembleCriticalPathAndNTC(t *testing.T) {
	col := &Collector{}
	tr := New(col)
	root := tr.Root("read")
	h0 := root.Child("read.hop")
	h0.SetErrText("fault: site 4 is down (step 2)")
	h0.Finish()
	h1 := root.Child("read.hop")
	h1.SetNTC(21)
	h1.Finish()
	root.Finish()
	traces := Assemble(col.Spans())
	if len(traces) != 1 || traces[0].Count != 3 {
		t.Fatalf("assembled %d traces", len(traces))
	}
	trc := traces[0]
	if trc.NTC() != 21 {
		t.Fatalf("trace NTC = %d, want 21", trc.NTC())
	}
	path := CriticalPath(trc.Root())
	if len(path) != 2 || path[1].Span.NTC != 21 {
		t.Fatalf("critical path took the failed hop: %v", path)
	}
	edges := Edges(traces)
	if len(edges) != 2 {
		t.Fatalf("want 2 edge names, got %d", len(edges))
	}
	if edges[1].Name != "read.hop" || edges[1].Count != 2 || edges[1].Errors != 1 || edges[1].TotalNTC != 21 {
		t.Fatalf("read.hop edge stat wrong: %+v", edges[1])
	}
	var buf bytes.Buffer
	Waterfall(&buf, trc)
	out := buf.String()
	if !strings.Contains(out, "trace t1") || !strings.Contains(out, "verdict=crashed") {
		t.Fatalf("waterfall missing expected content:\n%s", out)
	}
}

func TestAssembleOrphansBecomeRoots(t *testing.T) {
	sps := []Span{
		{Trace: "t1", ID: "s2", Parent: "s-missing", Name: "child",
			Site: -1, Peer: -1, Object: -1, Hop: -1, Attempt: -1, Start: 5, End: 6},
		{Trace: "t1", ID: "s1", Name: "root",
			Site: -1, Peer: -1, Object: -1, Hop: -1, Attempt: -1, Start: 1, End: 9},
	}
	traces := Assemble(sps)
	if len(traces) != 1 || len(traces[0].Roots) != 2 {
		t.Fatalf("orphan not surfaced as extra root: %+v", traces)
	}
	if traces[0].Root().Name != "root" {
		t.Fatalf("primary root should be earliest start, got %s", traces[0].Root().Name)
	}
}

// rankQuantile takes the ceiling rank, as metrics.Histogram does: p99 of
// 160 samples is the 159th (rounding the rank half-up picked the 158th,
// with only 98.75 % of the sample at or below it).
func TestRankQuantileCeilingRank(t *testing.T) {
	sorted := make([]int64, 160)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{0.99, 159}, {0.50, 80}, {0, 1}, {1, 160}} {
		if got := rankQuantile(sorted, c.p); got != c.want {
			t.Errorf("p=%g: %d, want %d", c.p, got, c.want)
		}
	}
	if got := rankQuantile(sorted[:11], 0.95); got != 11 {
		t.Errorf("p95 of 11 = %d, want 11", got)
	}
	if got := rankQuantile(nil, 0.5); got != 0 {
		t.Errorf("empty = %d, want 0", got)
	}
}
