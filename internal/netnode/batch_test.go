package netnode

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"drp/internal/core"
	"drp/internal/netsim"
	"drp/internal/plan"
	"drp/internal/store"
)

// dirBytes reads every file of a site directory, by name.
func dirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// TestBatchAppliesPrefixUpToRejection sends one durable site a batch whose
// record 3 drops the site's primary copy, and a twin site records 0..2 as
// a batch of one each. The batch reply says 3 records applied with the
// drop's code, and the two sites end with the same state and the same log
// bytes: a batch logs exactly the records it carries, up to the one it
// rejects, and nothing after it.
func TestBatchAppliesPrefixUpToRejection(t *testing.T) {
	p := gen(t, 4, 6, 0.3, 0.5, 1)
	site := p.Primary(0)
	var foreign []int // objects primaried elsewhere
	for k := 0; k < p.Objects(); k++ {
		if p.Primary(k) != site {
			foreign = append(foreign, k)
		}
	}
	if len(foreign) < 3 {
		t.Fatalf("site %d is primary of all but %d objects", site, len(foreign))
	}
	other := p.Primary(foreign[0])
	records := []message{
		{Op: "place", Object: foreign[0], Version: 2},
		{Op: "replicas", Object: foreign[0], Sites: []int{other, site}},
		{Op: "primary", Object: foreign[1], Site: site},
		{Op: "drop", Object: 0},
		{Op: "place", Object: foreign[2], Version: 1},
	}
	const k = 3
	open := func(dir string) *Node {
		st, err := store.Open(dir, site, primaries(p), testStoreOpts())
		if err != nil {
			t.Fatal(err)
		}
		n, err := listenStore(p, site, "127.0.0.1:0", st, newConfig())
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	batchDir, twinDir := t.TempDir(), t.TempDir()
	batched, twin := open(batchDir), open(twinDir)

	resp, err := callOnce(batched.Addr(), message{Op: opBatch, Batch: records}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Applied != k || resp.Code != codeNotPrimary {
		t.Fatalf("batch reply %+v, want %d applied and code %q", resp, k, codeNotPrimary)
	}
	for _, r := range records[:k] {
		if resp, err := callOnce(twin.Addr(), message{Op: opBatch, Batch: []message{r}}, 0); err != nil || !resp.OK {
			t.Fatalf("%s one at a time: %+v, %v", r.Op, resp, err)
		}
	}
	if got, want := batched.Store().EncodeState(), twin.Store().EncodeState(); !bytes.Equal(got, want) {
		t.Fatalf("batched site state\n  %x\none record per command\n  %x", got, want)
	}
	if err := errors.Join(batched.close(), twin.close()); err != nil {
		t.Fatal(err)
	}
	got, want := dirBytes(t, batchDir), dirBytes(t, twinDir)
	if len(want) == 0 || !maps.EqualFunc(got, want, bytes.Equal) {
		for name, data := range want {
			t.Logf("%s: batched %d bytes, one record per command %d", name, len(got[name]), len(data))
		}
		t.Fatalf("the batched site's %d files differ from the twin's %d", len(got), len(want))
	}
}

// TestBatchRefusedWhole: an empty batch, a nested batch, a data-path op and
// an unknown op are each refused with codeBadOp before any record applies,
// though a valid record comes first.
func TestBatchRefusedWhole(t *testing.T) {
	p := gen(t, 3, 3, 0.3, 0.5, 1)
	c := startCluster(t, p)
	prim := p.Primary(0)
	other := (prim + 1) % p.Sites()
	valid := message{Op: "place", Object: 0, Version: 4}
	for _, tc := range []struct {
		name  string
		batch []message
	}{
		{"empty", nil},
		{"nested batch", []message{valid, {Op: opBatch, Batch: []message{valid}}}},
		{"read", []message{valid, {Op: "read", Object: 0}}},
		{"update", []message{valid, {Op: "update", Object: 0}}},
		{"sync", []message{valid, {Op: "sync", Object: 0, Version: 1}}},
		{"reconcile", []message{valid, {Op: "reconcile", Object: 0}}},
		{"unknown op", []message{valid, {Op: "explode", Object: 0}}},
	} {
		before := c.Node(other).Store().EncodeState()
		resp, err := callOnce(c.Node(other).Addr(), message{Op: opBatch, Batch: tc.batch}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if resp.OK || resp.Code != codeBadOp || resp.Applied != 0 {
			t.Errorf("%s: reply %+v, want code %q with nothing applied", tc.name, resp, codeBadOp)
		}
		if got := c.Node(other).Store().EncodeState(); !bytes.Equal(got, before) {
			t.Errorf("%s: a refused batch moved site %d", tc.name, other)
		}
	}
}

// TestMigrationCountsOnlyAppliedRecords: site 4 is told to drop objects 0
// and 2 in one command, but just before it is sent site 4 learns it is
// object 2's primary, so it applies the first drop and refuses the second.
// The report counts the one drop, the error carries the refusal's code,
// and the next migration converges.
func TestMigrationCountsOnlyAppliedRecords(t *testing.T) {
	p := viewProblem(t)
	members := []int{0, 1, 2, 3, 4}
	c, err := StartView(p, members)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mk := func(epoch int, placement ...[]int) *plan.Plan {
		pl := &plan.Plan{Epoch: epoch, View: plan.View{Members: members}, Primaries: []int{0, 1, 2, 3}, Placement: placement}
		if err := pl.Validate(p); err != nil {
			t.Fatal(err)
		}
		return pl
	}
	if _, err := c.ApplyPlan(mk(1, []int{0, 4}, []int{1}, []int{2, 4}, []int{3})); err != nil {
		t.Fatal(err)
	}
	writeEach(t, c)
	drained := mk(2, []int{0}, []int{1}, []int{2}, []int{3})
	c.SetStepHook(func(s plan.Step) {
		if s.Kind == plan.Drop && s.Object == 2 {
			if err := c.record(4, message{Op: "primary", Object: 2, Site: 4}); err != nil {
				t.Error(err)
			}
		}
	})
	rep, err := c.ApplyPlan(drained)
	c.SetStepHook(nil)
	var re *replyError
	if !errors.As(err, &re) || re.Code != codeNotPrimary {
		t.Fatalf("migration error %v, want the site's %q refusal", err, codeNotPrimary)
	}
	if rep.Steps != 2 || rep.Completed != 1 {
		t.Fatalf("report %+v, want 1 of 2 steps completed", *rep)
	}
	if c.Node(4).Holds(0) || !c.Node(4).Holds(2) {
		t.Fatalf("site 4 holds object 0: %v, object 2: %v; want only the refused drop's object", c.Node(4).Holds(0), c.Node(4).Holds(2))
	}
	rep, err = c.ApplyPlan(drained)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Steps != 1 || rep.Completed != 1 {
		t.Fatalf("the retry's report %+v, want the one remaining drop", *rep)
	}
	requireConverged(t, c, "after the retry")
}

// TestRefreshSplitsAtTheLineCap deploys a placement whose refresh sends
// each of two sites one record per object, for just enough objects that
// those records overflow one line. Each refresh wave splits in two, every
// line a site receives stays within maxLineBytes (a longer one is refused
// as oversized), each chunk but the last is full, and the cluster
// converges.
func TestRefreshSplitsAtTheLineCap(t *testing.T) {
	replicas := func(n int) []message {
		out := make([]message, n)
		for k := range out {
			out[k] = message{Op: "replicas", Object: k, Sites: []int{0, 1}}
		}
		return out
	}
	n := 1
	for fitLine(replicas(n)) == n {
		n *= 2
	}
	for lo := n / 2; lo+1 < n; { // the least n whose records overflow a line
		if mid := (lo + n) / 2; fitLine(replicas(mid)) == mid {
			lo = mid
		} else {
			n = mid
		}
	}
	records := replicas(n)
	full := fitLine(records)
	chunks := [][]message{records[:full], records[full:]}
	line := func(chunk []message) []byte {
		// The longest trace context a tracer mints.
		data, err := json.Marshal(message{Op: opBatch, Batch: chunk, Trace: "t18446744073709551615", Span: "s18446744073709551615"})
		if err != nil {
			t.Fatal(err)
		}
		return append(data, '\n')
	}
	for i, chunk := range chunks {
		if size := len(line(chunk)); size > maxLineBytes {
			t.Fatalf("chunk %d of %d records is a %d-byte line, cap %d", i, len(chunk), size, maxLineBytes)
		}
	}
	if size := len(line(records[:full+1])); size <= maxLineBytes-batchReserve {
		t.Fatalf("the first chunk stopped at %d records, but %d make only a %d-byte line", full, full+1, size)
	}

	topo := netsim.NewTopology(2)
	if err := topo.AddLink(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	dist, err := topo.Distances()
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		Sizes:      make([]int64, n),
		Capacities: []int64{int64(n), int64(n)},
		Primaries:  make([]int, n),
		Reads:      [][]int64{make([]int64, n), make([]int64, n)},
		Writes:     [][]int64{make([]int64, n), make([]int64, n)},
		Dist:       dist,
	}
	for k := range n {
		cfg.Sizes[k], cfg.Reads[0][k], cfg.Reads[1][k] = 1, 1, 1
	}
	p, err := core.NewProblem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := StartLocal(p)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	everywhere := c.Plan()
	everywhere.Epoch = 1
	for k := range everywhere.Placement {
		everywhere.Placement[k] = []int{0, 1}
	}
	sent := countCommands(c, -1)
	if _, err := c.ApplyPlan(everywhere); err != nil {
		t.Fatal(err)
	}
	// One copy command to site 1, then two commands for each refresh
	// wave: site 1's records, and site 0's as the primary of every object.
	if *sent != 5 {
		t.Fatalf("the deploy sent %d commands, want 5", *sent)
	}
	requireConverged(t, c, fmt.Sprintf("%d objects on both sites", n))
}
