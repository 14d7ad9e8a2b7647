package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"drp/internal/gra"
	"drp/internal/metrics"
	"drp/internal/store"
)

// groups is every group registered with its full flag set, the way a
// command that had them all would.
type groups struct {
	tel  Telemetry
	dur  Durability
	caps Caps
}

func (g *groups) parse(args ...string) error {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	g.tel.Noun = "request"
	g.tel.Register(fs, "metrics-out", "events", "listen-metrics", "serve-for", "trace-out", "trace-sample", "trace-clock")
	g.dur.Register(fs, "data-dir", "fsync", "snapshot-every")
	g.caps.Register(fs)
	return Parse(fs, args, g.tel.Check, g.dur.Check, g.caps.Check)
}

// TestGroupRules has one row per dependency or range rule of a group: the
// offending flags, a word of the error, and the flag that makes them legal.
func TestGroupRules(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		bad  []string
		want string
		fix  []string
	}{
		{[]string{"-serve-for", "1s"}, "-serve-for", []string{"-listen-metrics", "127.0.0.1:0"}},
		{[]string{"-serve-for", "-1s", "-listen-metrics", "127.0.0.1:0"}, "negative", nil},
		{[]string{"-trace-sample", "2"}, "-trace-sample", []string{"-trace-out", "t.jsonl"}},
		{[]string{"-trace-clock", "wall"}, "-trace-clock", []string{"-trace-out", "t.jsonl"}},
		{[]string{"-trace-out", "t.jsonl", "-trace-sample", "0"}, "-trace-sample 0", nil},
		{[]string{"-trace-out", "t.jsonl", "-trace-clock", "bogus"}, "-trace-clock \"bogus\"", nil},
		{[]string{"-snapshot-every", "4"}, "-snapshot-every needs -data-dir", []string{"-data-dir", dir}},
		{[]string{"-fsync", "never"}, "-fsync needs -data-dir", []string{"-data-dir", dir}},
		{[]string{"-fsync", "sometimes", "-data-dir", dir}, "fsync policy", nil},
		{[]string{"-snapshot-every", "-1"}, "-snapshot-every -1 cannot be negative", nil},
		{[]string{"-snapshot-every", "-1", "-data-dir", dir}, "-snapshot-every -1 cannot be negative", nil},
		{[]string{"-timeout", "-1s"}, "-timeout", nil},
	} {
		err := new(groups).parse(c.bad...)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: error %v, want one naming %q", c.bad, err, c.want)
		}
		if c.fix == nil {
			continue
		}
		if err := new(groups).parse(append(c.bad, c.fix...)...); err != nil {
			t.Errorf("%v: rejected: %v", append(c.bad, c.fix...), err)
		}
	}
	if err := new(groups).parse(); err != nil {
		t.Errorf("no flags: %v", err)
	}
}

// TestRegisterSubset: a command accepts exactly the flags it registered,
// and the rest of the group stays at the defaults Check accepts.
func TestRegisterSubset(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var tel Telemetry
	tel.Register(fs, "metrics-out", "events", "trace-out")
	prob := Problem{Sites: 7, Objects: 9}
	prob.Register(fs, "sites", "objects", "seed")
	var dur Durability
	dur.Register(fs, "data-dir")
	for _, args := range [][]string{
		{"-serve-for", "1s"}, {"-listen-metrics", ":0"}, {"-trace-clock", "wall"}, {"-trace-sample", "2"}, {"-in", "p.json"}, {"-update", "0.1"},
		{"-fsync", "never"}, {"-snapshot-every", "4"},
	} {
		if err := Parse(fs, args, tel.Check, dur.Check); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%v: error %v, want an undefined-flag error", args, err)
		}
	}
	dir := t.TempDir()
	if err := Parse(fs, []string{"-metrics-out", "m.json", "-trace-out", "t.jsonl", "-sites", "3", "-data-dir", dir}, tel.Check, dur.Check); err != nil {
		t.Fatal(err)
	}
	if dur.Dir != dir || dur.Store != (store.Options{Sync: store.SyncAlways}) {
		t.Errorf("durability defaults lost: %+v", dur)
	}
	if tel.MetricsOut != "m.json" || tel.TraceOut != "t.jsonl" || tel.TraceSample != 1 || tel.TraceClock != "logical" {
		t.Errorf("parsed %+v", tel)
	}
	if prob.Sites != 3 || prob.Objects != 9 || prob.Update != 0.05 || prob.Capacity != 0.15 || prob.Seed != 1 {
		t.Errorf("problem defaults lost: %+v", prob)
	}

	defer func() {
		if recover() == nil {
			t.Error("registering a flag the group lacks did not panic")
		}
	}()
	tel.Register(flag.NewFlagSet("test", flag.ContinueOnError), "data-dir")
}

func TestDurabilityStoreOptions(t *testing.T) {
	var g groups
	if err := g.parse("-data-dir", t.TempDir(), "-fsync", "every:8", "-snapshot-every", "3"); err != nil {
		t.Fatal(err)
	}
	want := store.Options{Sync: store.SyncInterval, SyncEvery: 8, SnapshotEvery: 3}
	if g.dur.Store != want {
		t.Errorf("store options %+v, want %+v", g.dur.Store, want)
	}
}

func TestProblemLoadAndResolvePlacement(t *testing.T) {
	prob := Problem{Sites: 5, Objects: 8, Update: 0.05, Capacity: 0.3, Seed: 2}
	p, err := prob.Load()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "p.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Encode(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	fromFile, err := (&Problem{In: path}).Load()
	if err != nil || fromFile.DPrime() != p.DPrime() {
		t.Fatalf("-in round trip: D' %d vs %d, err %v", fromFile.DPrime(), p.DPrime(), err)
	}
	if _, err := (&Problem{In: path + ".missing"}).Load(); err == nil {
		t.Error("missing -in accepted")
	}

	params := gra.DefaultParams()
	params.Seed = 1
	none, err := ResolvePlacement(p, "none", params)
	if err != nil || none.TotalReplicas() != 0 {
		t.Fatalf("none: %v replicas, err %v", none.TotalReplicas(), err)
	}
	sra, err := ResolvePlacement(p, "sra", params)
	if err != nil || sra.Cost() > none.Cost() {
		t.Fatalf("sra: cost %d vs primaries-only %d, err %v", sra.Cost(), none.Cost(), err)
	}
	params.PopSize, params.Generations = 6, 3
	ga, err := ResolvePlacement(p, "gra", params)
	if err != nil || ga.Cost() > none.Cost() {
		t.Fatalf("gra: cost %d vs primaries-only %d, err %v", ga.Cost(), none.Cost(), err)
	}
	schemePath := filepath.Join(t.TempDir(), "s.json")
	sf, err := os.Create(schemePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := sra.Encode(sf); err != nil {
		t.Fatal(err)
	}
	sf.Close()
	file, err := ResolvePlacement(p, schemePath, params)
	if err != nil || file.Cost() != sra.Cost() {
		t.Fatalf("scheme file: cost %d vs %d, err %v", file.Cost(), sra.Cost(), err)
	}
	if _, err := ResolvePlacement(p, "nope", params); err == nil || !strings.Contains(err.Error(), "none|sra|gra") {
		t.Errorf("unknown placement: %v", err)
	}
}

// failAfter accepts n bytes and then fails every write, like a full disk.
type failAfter struct{ n int }

var errDiskFull = errors.New("disk full")

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, errDiskFull
	}
	w.n -= len(p)
	return len(p), nil
}

// TestTelemetryCloseReportsLostEvents: Emit cannot return the write error,
// so Close must — the first one, named after the sink.
func TestTelemetryCloseReportsLostEvents(t *testing.T) {
	file, err := os.Create(filepath.Join(t.TempDir(), "events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	tel := Telemetry{file: file, Events: metrics.NewEventLog(&failAfter{n: 40})}
	for i := 0; i < 5; i++ {
		tel.Events.Emit("cluster.epoch", map[string]any{"epoch": i})
	}
	err = tel.Close()
	if !errors.Is(err, errDiskFull) || !strings.Contains(err.Error(), "-events") {
		t.Fatalf("Close() = %v, want the -events write error", err)
	}
}

func TestTelemetryOpenAndClose(t *testing.T) {
	dir := t.TempDir()
	tel := Telemetry{MetricsOut: filepath.Join(dir, "m.json"), EventsOut: filepath.Join(dir, "e.jsonl")}
	if err := tel.Open(io.Discard); err != nil {
		t.Fatal(err)
	}
	tel.Reg.Counter("drp_test_total", "", nil).Inc()
	tel.Events.Emit("test", nil)
	if err := tel.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := metrics.ReadSnapshotFile(tel.MetricsOut)
	if v, ok := snap.CounterValue("drp_test_total", nil); err != nil || !ok || v != 1 {
		t.Errorf("snapshot counter = %d, %v, err %v", v, ok, err)
	}
	if data, _ := os.ReadFile(tel.EventsOut); !strings.Contains(string(data), `"event":"test"`) {
		t.Errorf("events file: %q", data)
	}

	var off Telemetry
	if err := off.Open(io.Discard); err != nil || off.Reg != nil || off.Events != nil || off.Tracer != nil {
		t.Errorf("no flags: reg %v, events %v, tracer %v, err %v", off.Reg, off.Events, off.Tracer, err)
	}
	if err := off.Close(); err != nil {
		t.Error(err)
	}

	bad := Telemetry{MetricsOut: filepath.Join(dir, "missing", "m.json")}
	if err := bad.Open(io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := bad.Close(); err == nil || !strings.Contains(err.Error(), "-metrics-out") {
		t.Errorf("unwritable snapshot: %v", err)
	}
}

func TestTelemetryTraceFile(t *testing.T) {
	dir := t.TempDir()
	tel := Telemetry{TraceOut: filepath.Join(dir, "t.jsonl"), TraceSample: 1, TraceClock: "logical", Noun: "epoch",
		EventsOut: filepath.Join(dir, "e.jsonl")}
	var out strings.Builder
	if err := tel.Open(&out); err != nil {
		t.Fatal(err)
	}
	tel.Tracer.Root("epoch").Finish()
	if err := tel.Close(); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(tel.TraceOut); !strings.Contains(string(data), `"epoch"`) {
		t.Errorf("span file: %q", data)
	}
	if data, err := os.ReadFile(tel.EventsOut); err != nil || len(data) != 0 {
		t.Errorf("-events holds %q (%v), want nothing: spans go to the span file only", data, err)
	}
	if want := "tracing epochs to " + tel.TraceOut + " (sample 1/1, logical clock)\n"; out.String() != want {
		t.Errorf("announced %q, want %q", out.String(), want)
	}
	for _, bad := range []Telemetry{
		{TraceOut: tel.TraceOut, TraceSample: 0, TraceClock: "logical"},
		{TraceOut: tel.TraceOut, TraceSample: 1, TraceClock: "lunar"},
	} {
		if err := bad.Open(io.Discard); err == nil {
			t.Errorf("sample %d, clock %q accepted", bad.TraceSample, bad.TraceClock)
		}
	}
}

// TestFlagInventory builds the eight commands and compares every (flag,
// default) pair their -h prints with testdata/flags.txt, so no change can
// add, drop or re-default a flag unnoticed.
func TestFlagInventory(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every command")
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "drp/cmd/...").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	flagLine := regexp.MustCompile(`^  -(\S+)`)
	defaultOf := regexp.MustCompile(`\(default (.*)\)$`)
	var got []string
	for _, name := range []string{"drpbench", "drpcluster", "drpgen", "drpload", "drpnet", "drpsolve", "drptrace", "drpverify"} {
		help, _ := exec.Command(filepath.Join(bin, name), "-h").CombinedOutput() // -h exits non-zero
		lines := strings.Split(string(help), "\n")
		for i, line := range lines {
			m := flagLine.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			// The default closes the last line of the flag's usage text.
			def := "-"
			for j := i + 1; j < len(lines) && strings.HasPrefix(lines[j], "    \t"); j++ {
				def = "-"
				if d := defaultOf.FindStringSubmatch(lines[j]); d != nil {
					def = d[1]
				}
			}
			got = append(got, fmt.Sprintf("%s -%s %s", name, m[1], def))
		}
	}
	data, err := os.ReadFile(filepath.Join("testdata", "flags.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	seen := make(map[string]bool, len(got))
	for _, g := range got {
		seen[g] = true
	}
	for _, w := range want {
		if !seen[w] {
			t.Errorf("missing or re-defaulted: %s", w)
		}
		delete(seen, w)
	}
	for g := range seen {
		t.Errorf("not in testdata/flags.txt: %s", g)
	}
	if len(got) != len(want) {
		t.Errorf("%d flags, testdata/flags.txt lists %d", len(got), len(want))
	}
}
