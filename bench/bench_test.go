package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"drp/internal/load"
	"drp/internal/spans"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json is generated from spec.go; this fails when either moves
// alone, and checks the limits the driver refuses a file for.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, generated any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	fresh, err := json.Marshal(manifest())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(fresh, &generated); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, generated) {
		t.Fatal("BENCHMARK.json differs from `go run . manifest`; regenerate it")
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(data))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer", len(workloads), len(endToEnd), len(perLayer))
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		name(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
		hasSetup = hasSetup || d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower"
	}
	if !hasSetup {
		t.Error("setup_s is missing")
	}
	for _, d := range append(append([]metric{}, endToEnd...), perLayer...) {
		if !unitRE.MatchString(d.Unit) || d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: unit %q better %q", d.Name, d.Unit, d.Better)
		}
	}
	for _, d := range perLayer {
		name(d.Name)
	}
	for _, g := range gates {
		if _, ok := declared[g.name]; !ok {
			t.Errorf("compare gates undeclared metric %s", g.name)
		}
	}
}

func quickOpts(t *testing.T, mode runMode) *runOpts {
	return &runOpts{mode: mode, seed: 1, seconds: 1, quick: true, workdir: t.TempDir(), log: io.Discard}
}

// Every declared name comes out exactly once per run with its declared
// unit: all end-to-end names with --trace 0 and all per-layer names with
// --trace 1. metricSet.put panics on an undeclared or repeated name, so a
// run that returns has emitted no strays. The runs double as the oracle
// test: NTC, counters, recovery, trace sums and solver outputs are all
// checked inside and fail the run.
func TestEveryMetricEmittedPerWorkload(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			for trace, defs := range [][]metric{endToEnd, perLayer} {
				res, err := runWorkload(w, quickOpts(t, runMode(trace)))
				if err != nil {
					t.Fatalf("trace %d: %v", trace, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("trace %d: correct=%v failed=%d attempted=%d", trace, res.Correct, res.Failed, res.Attempted)
				}
				line, err := res.contractLine(trace)
				if err != nil {
					t.Fatal(err)
				}
				var got struct {
					Correct   *bool
					Attempted *int64
					Failed    *int64
					Metrics   map[string]struct {
						Value *float64
						Unit  string
					}
				}
				dec := json.NewDecoder(strings.NewReader(line))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&got); err != nil {
					t.Fatal(err)
				}
				if got.Correct == nil || got.Attempted == nil || got.Failed == nil || len(got.Metrics) != len(defs) {
					t.Fatalf("trace %d: %d metrics, want %d: %s", trace, len(got.Metrics), len(defs), line)
				}
				for _, d := range defs {
					v, ok := got.Metrics[d.Name]
					if !ok || v.Value == nil || v.Unit != d.Unit {
						t.Errorf("trace %d: %s missing or unit %q, want %q", trace, d.Name, v.Unit, d.Unit)
					}
					if ok && trace == 0 && *v.Value == 0 {
						t.Errorf("end-to-end metric %s is 0", d.Name)
					}
				}
			}
		})
	}
}

// Layer isolation as the README's interaction table predicts it.
func TestLayerIsolation(t *testing.T) {
	wire, err := runWorkload(findWorkload(wWireRead), quickOpts(t, modeLayers))
	if err != nil {
		t.Fatal(err)
	}
	m := wire.Metrics
	if m["store.appends_per_req"].Value != 0 || m["netnode.remote_frac"].Value < 0.8 || m["spans.coverage"].Value < 0.9 {
		t.Errorf("wire_read: appends %v remote_frac %v coverage %v", m["store.appends_per_req"].Value, m["netnode.remote_frac"].Value, m["spans.coverage"].Value)
	}
	if _, ok := m["e2e.write_p50_ms"]; ok {
		t.Error("wire_read reports a write latency")
	}
	dense, err := runWorkload(findWorkload(wSolveDense), quickOpts(t, modeLayers))
	if err != nil {
		t.Fatal(err)
	}
	for name := range dense.Metrics {
		for _, prefix := range []string{"netnode.", "store.", "trace.", "sparse."} {
			if strings.HasPrefix(name, prefix) {
				t.Errorf("solve_dense reports %s", name)
			}
		}
	}
}

func TestStreamDigest(t *testing.T) {
	w := findWorkload(wMixedSRA)
	p, err := instance(w)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := genStream(w, p, 7, 500), genStream(w, p, 7, 500), genStream(w, p, 8, 500)
	if a.digest != b.digest || !reflect.DeepEqual(a.reqs, b.reqs) {
		t.Error("same seed, different stream")
	}
	if a.digest == c.digest {
		t.Error("different seeds, same stream")
	}
	if a.writes != 50 || a.reads != 450 || c.writes != 50 {
		t.Errorf("reads/writes %d/%d, want 450/50", a.reads, a.writes)
	}
}

func TestSelfTimesSumToRoots(t *testing.T) {
	sp := func(id, parent, name string, start, end int64) spans.Span {
		return spans.Span{Trace: "t1", ID: id, Parent: parent, Name: name, Start: start, End: end}
	}
	st := &stream{reads: 1, reqs: make([]load.Request, 1)}
	sps := []spans.Span{
		sp("s1", "", "read", 0, 100),
		sp("s2", "s1", "read.hop", 10, 90),
		sp("s3", "s2", "rpc.read", 20, 80),
		sp("s4", "s3", "serve.read", 40, 50),
	}
	m := metricSet{}
	if err := selfTimes(sps, st, 110, m); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{ // ns → µs per read
		"trace.read_self_us": 0.020, "trace.read_hop_self_us": 0.020,
		"trace.rpc_read_self_us": 0.050, "trace.serve_read_self_us": 0.010,
		"spans.per_req": 4, "spans.coverage": 100.0 / 110,
	}
	for name, v := range want {
		if got := m[name].Value; got < v-1e-9 || got > v+1e-9 {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	// A child that outlives its parent breaks the identity and must fail.
	sps[3].End = 200
	if err := selfTimes(sps, st, 110, metricSet{}); err == nil {
		t.Error("self times that do not sum to the root were accepted")
	}
	if err := selfTimes(append(sps[:3:3], sp("s9", "s3", "serve.mystery", 40, 50)), st, 110, metricSet{}); err == nil {
		t.Error("a span outside the vocabulary was accepted")
	}
}

// The driver's form sets up at least three times before the rounds and at
// least once more after each; every product but the live one is discarded.
func TestSetupTimerSamplesBetweenRounds(t *testing.T) {
	built, dropped := 0, 0
	s := &setupTimer[int]{o: &runOpts{mode: modeE2E},
		build:   func() (int, error) { built++; return built, nil },
		discard: func(int) { dropped++ }}
	live, err := s.first()
	if err != nil {
		t.Fatal(err)
	}
	if live != built || built < 3 || dropped != built-1 {
		t.Fatalf("first: live %d, built %d, dropped %d", live, built, dropped)
	}
	before := built
	if err := s.between(); err != nil {
		t.Fatal(err)
	}
	if built == before || dropped != built-1 || len(s.secs) != built {
		t.Fatalf("between: built %d (was %d), dropped %d, %d samples", built, before, dropped, len(s.secs))
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("got %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 = quartiles([]float64{1, 2, 4}); q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("got %v %v %v", q1, med, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	rounds := func(med, iqr float64) value {
		return value{Value: med, Unit: "s", Q1: med - iqr/2, Q3: med + iqr/2, N: 5}
	}
	base := func() *report {
		return &report{Seed: 1, Workloads: []result{{Workload: wWireRead, StreamDigest: "d", Metrics: metricSet{
			"round_s":       rounds(2.0, 0.06),
			"setup_s":       rounds(0.001, 0.0005), // wide relative spread, under the 50 ms floor
			"ntc_per_req":   {Value: 152.25, Unit: "ntc/req"},
			"e2e.fail_frac": {Value: 0, Unit: "frac"},
		}}}}
	}
	verdicts := func(b *report) (map[string]string, bool) {
		var out bytes.Buffer
		pass, err := compareReports(&out, base(), b)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]string{}
		for _, line := range strings.Split(out.String(), "\n") {
			if f := strings.Fields(line); len(f) > 2 && f[0] == wWireRead {
				got[f[1]] = f[len(f)-1]
			}
		}
		return got, pass
	}
	got, pass := verdicts(base())
	if !pass || got["round_s"] != vSame || got["setup_s"] != vSame || got["ntc_per_req"] != vSame {
		t.Errorf("A/A: pass=%v %v", pass, got)
	}
	faster := base()
	faster.Workloads[0].Metrics["round_s"] = rounds(1.4, 0.06)
	if got, pass = verdicts(faster); !pass || got["round_s"] != vBetter {
		t.Errorf("-30%%: pass=%v %v", pass, got)
	}
	slower := base()
	slower.Workloads[0].Metrics["round_s"] = rounds(2.6, 0.06)
	if got, pass = verdicts(slower); pass || got["round_s"] != vWorse {
		t.Errorf("+30%%: pass=%v %v", pass, got)
	}
	wide := base()
	wide.Workloads[0].Metrics["round_s"] = rounds(2.1, 0.9)
	if got, pass = verdicts(wide); !pass || got["round_s"] != vUnresolved {
		t.Errorf("wide spread: pass=%v %v", pass, got)
	}
	failing := base()
	failing.Workloads[0].Metrics["e2e.fail_frac"] = value{Value: 0.001, Unit: "frac"}
	failing.Workloads[0].Metrics["ntc_per_req"] = value{Value: 152.5, Unit: "ntc/req"}
	if got, pass = verdicts(failing); pass || got["e2e.fail_frac"] != vWorse || got["ntc_per_req"] != vWorse {
		t.Errorf("fail_frac rise: pass=%v %v", pass, got)
	}
	other := base()
	other.Workloads[0].StreamDigest = "e"
	if _, err := compareReports(io.Discard, base(), other); err == nil {
		t.Error("reports over different streams were compared")
	}
}
