package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"drp/internal/metrics"
)

func TestClusterRunsAllPolicies(t *testing.T) {
	for _, policy := range []string{"none", "sra", "agra", "agra+mini"} {
		var out bytes.Buffer
		err := run([]string{
			"-sites", "8", "-objects", "12", "-epochs", "2",
			"-policy", policy, "-drift", "0.2",
		}, &out)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if !strings.Contains(out.String(), "total NTC") {
			t.Fatalf("%s output missing total:\n%s", policy, out.String())
		}
	}
}

// TestClusterFailureInjection: a fault plan's bounded crash is an epoch
// outage. Site 0 is down in epoch 1 only, so that epoch fails the requests
// for the objects site 0 alone holds; the golden pins the whole table.
func TestClusterFailureInjection(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(path, []byte(`{"seed":1,"events":[{"kind":"crash","site":0,"step":1,"until":2}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run([]string{
		"-sites", "6", "-objects", "8", "-epochs", "2", "-policy", "none",
		"-drift", "0", "-fault-plan", path,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "failure-injection.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Fatalf("stdout differs from testdata/failure-injection.golden:\n%s", out.String())
	}
}

// eventFields lists, per -events record name, the fields a seeded run
// fixes at any GOMAXPROCS.
var eventFields = map[string][]string{
	"cluster.epoch": {"epoch", "reads", "writes", "failed_reads", "failed_writes", "serve_ntc", "read_ntc", "write_ntc",
		"model_ntc", "migration_ntc", "migrations", "changed", "adapt_evaluations", "adapt_stopped"},
	"solver.finished": {"algorithm", "evaluations", "iterations", "stopped"},
	"solver.progress": {"algorithm", "iteration", "evaluations", "best_ntc"},
}

// projectEvents renders an -events file as one line per record other
// than a span: its name and the fields eventFields fixes, runs of equal
// lines folded to one line with a count.
func projectEvents(t *testing.T, path string) string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
		dec.UseNumber()
		var rec map[string]any
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		name := fmt.Sprint(rec["event"])
		if name == "span" {
			continue // spans belong to the -trace-out file
		}
		line := name
		for _, k := range eventFields[name] {
			line += fmt.Sprintf(" %s=%v", k, rec[k])
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for i := 0; i < len(lines); {
		j := i
		for j < len(lines) && lines[j] == lines[i] {
			j++
		}
		fmt.Fprintf(&b, "%s x%d\n", lines[i], j-i)
		i = j
	}
	return b.String()
}

// TestClusterEventsAndTraceFilesPinned: a seeded run's -events records
// carry the names and deterministic fields of testdata/events.golden,
// and -events leaves the span file byte-identical to a run without it.
func TestClusterEventsAndTraceFilesPinned(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-sites", "6", "-objects", "12", "-epochs", "3", "-seed", "7"}
	events, withEvents, alone := filepath.Join(dir, "ev.jsonl"), filepath.Join(dir, "t1.jsonl"), filepath.Join(dir, "t2.jsonl")
	if err := run(append(args, "-events", events, "-trace-out", withEvents), io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-trace-out", alone), io.Discard); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "events.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := projectEvents(t, events); got != string(want) {
		t.Errorf("-events records differ from testdata/events.golden:\n%s", got)
	}
	a, errA := os.ReadFile(withEvents)
	b, errB := os.ReadFile(alone)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Errorf("span file with -events (%d bytes) differs from the one without (%d bytes)", len(a), len(b))
	}
}

// TestClusterEventsIdenticalAtAnyGOMAXPROCS: the seeded run's -events
// records, projected to their fixed fields, do not depend on the worker
// count. AGRA's micro-GAs run concurrently; their progress must still
// reach the log in input order with the evaluation counts of a serial
// run.
func TestClusterEventsIdenticalAtAnyGOMAXPROCS(t *testing.T) {
	dir := t.TempDir()
	var want string
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		path := filepath.Join(dir, fmt.Sprintf("ev%d.jsonl", procs))
		err := run([]string{"-sites", "6", "-objects", "12", "-epochs", "3", "-seed", "7", "-events", path}, io.Discard)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		got := projectEvents(t, path)
		if procs == 1 {
			want = got
		} else if got != want {
			t.Fatalf("GOMAXPROCS=%d -events records differ from GOMAXPROCS=1:\n%s", procs, got)
		}
	}
}

func TestClusterUnknownPolicy(t *testing.T) {
	if err := run([]string{"-policy", "chaos"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestClusterBadWorkload(t *testing.T) {
	if err := run([]string{"-sites", "0"}, &bytes.Buffer{}); err == nil {
		t.Fatal("zero sites accepted")
	}
}

// TestClusterRejectsBadDrift: a drift share outside [0, 1], NaN included,
// and a change ratio the pattern change rejects each fail the run. A NaN
// -drift used to disable drift silently, and -drift-ch 1e9 drew its
// requests one by one for hours.
func TestClusterRejectsBadDrift(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-drift", "NaN"}, "-drift NaN"},
		{[]string{"-drift", "1.5"}, "-drift 1.5"},
		{[]string{"-drift-reads", "NaN"}, "-drift-reads NaN"},
		{[]string{"-drift-reads", "-0.5"}, "-drift-reads -0.5"},
		{[]string{"-drift-ch", "NaN"}, "Ch"},
		{[]string{"-drift-ch", "+Inf"}, "Ch"},
		{[]string{"-drift-ch", "1e300"}, "Ch"},
		{[]string{"-drift-ch", "1e9"}, "Ch"},
	} {
		err := run(append([]string{"-sites", "6", "-objects", "8", "-epochs", "2"}, c.args...), io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: error %v, want one containing %q", c.args, err, c.want)
		}
	}
}

// TestClusterBadTraceFlagsLeaveEventsFile: a trace flag the span sink would
// refuse fails the run before any sink is opened, so an existing -events
// file keeps its bytes.
func TestClusterBadTraceFlagsLeaveEventsFile(t *testing.T) {
	dir := t.TempDir()
	events := filepath.Join(dir, "ev.jsonl")
	const prior = "{\"event\":\"earlier run\"}\n"
	for _, bad := range [][]string{{"-trace-clock", "bogus"}, {"-trace-sample", "0"}} {
		if err := os.WriteFile(events, []byte(prior), 0o644); err != nil {
			t.Fatal(err)
		}
		args := append([]string{"-sites", "4", "-objects", "6", "-epochs", "1",
			"-events", events, "-trace-out", filepath.Join(dir, "t.jsonl")}, bad...)
		if err := run(args, io.Discard); err == nil {
			t.Fatalf("%v accepted", bad)
		}
		if got, err := os.ReadFile(events); err != nil || string(got) != prior {
			t.Fatalf("%v: -events file now %q (%v), want it untouched", bad, got, err)
		}
	}
}

func TestClusterSummaryAndTelemetryFiles(t *testing.T) {
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "metrics.json")
	eventsPath := filepath.Join(dir, "events.jsonl")
	var out bytes.Buffer
	err := run([]string{
		"-sites", "8", "-objects", "12", "-epochs", "3", "-policy", "agra+mini",
		"-drift", "0.2", "-metrics-out", metricsPath, "-events", eventsPath,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}

	// The end-of-run summary reports every aggregate on one line.
	summary := regexp.MustCompile(`summary: epochs=3 degraded=\d+ migrations=\d+ migrationNTC=\d+ serveNTC=\d+ total NTC \(serve\+migrate\)=\d+`)
	if !summary.MatchString(out.String()) {
		t.Errorf("missing or malformed summary line:\n%s", out.String())
	}

	snap, err := metrics.ReadSnapshotFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var epochs float64
	for _, is := range snap.Instruments {
		if is.Name == "drp_cluster_epochs_total" {
			epochs = is.Value
		}
	}
	if epochs != 3 {
		t.Errorf("snapshot epochs counter = %v, want 3", epochs)
	}

	eventsData, err := os.ReadFile(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(eventsData), `"event":"cluster.epoch"`); got != 3 {
		t.Errorf("event log has %d cluster.epoch records, want 3:\n%s", got, eventsData)
	}
}

// TestClusterListenMetricsServes scrapes the live endpoint while the CLI
// runs: the acceptance criterion that -listen-metrics 127.0.0.1:0 serves
// Prometheus text carrying solver, cluster-epoch and netnode families.
func TestClusterListenMetricsServes(t *testing.T) {
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-sites", "6", "-objects", "8", "-epochs", "2", "-policy", "agra+mini",
			"-drift", "0.2", "-listen-metrics", "127.0.0.1:0", "-serve-for", "2s",
		}, out)
	}()

	// The address line is printed before the simulation starts.
	addrRE := regexp.MustCompile(`metrics: http://([^/\s]+)/metrics`)
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if m := addrRE.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("metrics address never printed:\n%s", out.String())
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	for _, family := range []string{
		"drp_solver_runs_total", "drp_solver_iterations_total",
		"drp_cluster_epochs_total", "drp_cluster_serve_ntc_total",
		"drp_net_messages_total",
	} {
		if !strings.Contains(string(body), family) {
			t.Errorf("/metrics missing family %s", family)
		}
	}
	if !strings.Contains(string(body), "# TYPE drp_cluster_epochs_total counter") {
		t.Errorf("/metrics missing TYPE metadata:\n%.2000s", body)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("drpcluster run did not finish")
	}
}

// syncBuffer lets the test read CLI output while run() is still writing.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestClusterCompareMode(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-sites", "6", "-objects", "10", "-epochs", "2", "-drift", "0.2", "-compare"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []string{"none", "sra", "agra", "agra+mini", "gra"} {
		if !strings.Contains(out.String(), policy) {
			t.Fatalf("comparison missing policy %s:\n%s", policy, out.String())
		}
	}
}

func TestClusterJournalResumes(t *testing.T) {
	dir := t.TempDir()
	args := []string{
		"-sites", "8", "-objects", "12", "-epochs", "2", "-policy", "agra",
		"-drift", "0.2", "-data-dir", dir,
	}

	var first bytes.Buffer
	if err := run(args, &first); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(first.String(), "resuming from journal") {
		t.Fatalf("fresh run claimed to resume:\n%s", first.String())
	}

	// The rerun must start from the last recorded epoch's scheme, not the
	// greedy seed.
	var second bytes.Buffer
	if err := run(args, &second); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(second.String(), "resuming from journal: scheme of epoch 1") {
		t.Fatalf("rerun did not resume from the journal:\n%s", second.String())
	}
	if !strings.Contains(second.String(), "total NTC") {
		t.Fatalf("resumed run incomplete:\n%s", second.String())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "journal.snap" {
		t.Fatalf("data directory holds %v, want only journal.snap", entries)
	}
}

func TestClusterJournalFlagConflicts(t *testing.T) {
	if err := run([]string{"-sites", "6", "-objects", "8", "-epochs", "1",
		"-compare", "-data-dir", t.TempDir()}, &bytes.Buffer{}); err == nil {
		t.Fatal("-compare with -data-dir accepted")
	}
	// -fsync and -snapshot-every tune drpnet's site logs; the journal is
	// one atomically replaced record and takes neither.
	for _, flag := range [][]string{{"-snapshot-every", "4"}, {"-fsync", "never"}} {
		err := run(append([]string{"-sites", "6", "-objects", "8", "-epochs", "1", "-data-dir", t.TempDir()}, flag...), &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Fatalf("%v: error %v, want an undefined-flag error", flag, err)
		}
	}
}

func TestClusterFaultPlanMapsCrashesToEpochOutages(t *testing.T) {
	for _, tc := range []struct {
		name string
		plan string
		args []string
		// failing says, per epoch row, whether the epoch fails requests.
		failing []bool
	}{{
		// Site 0 is down in epoch 1 and site 2 in epoch 0: its restart at
		// step 1 closes the open-ended crash.
		name: "bounded and restarted crashes",
		plan: `{"seed":1,"events":[
			{"kind":"crash","site":0,"step":1,"until":2},
			{"kind":"crash","site":2,"step":0},
			{"kind":"restart","site":2,"step":1},
			{"kind":"latency","site":1,"step":0,"until":2,"delay_ms":5}
		]}`,
		args:    []string{"-objects", "8", "-epochs", "2"},
		failing: []bool{true, true},
	}, {
		// A restart inside a bounded crash ends it: site 0 is down in
		// epoch 1 only, not until the crash's own end at epoch 5.
		name: "restart inside a bounded crash",
		plan: `{"seed":1,"events":[
			{"kind":"crash","site":0,"step":1,"until":5},
			{"kind":"restart","site":0,"step":2}
		]}`,
		args:    []string{"-objects", "12", "-epochs", "6"},
		failing: []bool{false, true, false, false, false, false},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "plan.json")
			if err := os.WriteFile(path, []byte(tc.plan), 0o644); err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			args := append([]string{"-sites", "6", "-policy", "none", "-drift", "0", "-fault-plan", path}, tc.args...)
			if err := run(args, &out); err != nil {
				t.Fatal(err)
			}
			rows := regexp.MustCompile(`(?m)^\s+(\d+)\s+.*?(\d+)\s*$`).FindAllStringSubmatch(out.String(), -1)
			if len(rows) != len(tc.failing) {
				t.Fatalf("expected %d epoch rows, got %d:\n%s", len(tc.failing), len(rows), out.String())
			}
			failing := make([]bool, len(rows))
			for epoch, row := range rows {
				n, err := strconv.ParseInt(row[2], 10, 64)
				if err != nil {
					t.Fatalf("unparseable failures column %q", row[2])
				}
				failing[epoch] = n > 0
			}
			if !slices.Equal(failing, tc.failing) {
				t.Fatalf("epochs failing requests %v, want %v:\n%s", failing, tc.failing, out.String())
			}
		})
	}
}

func TestClusterFaultPlanRejectsBadPlan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(path, []byte(`{"seed":1,"events":[{"kind":"crash","site":77,"step":0}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-sites", "4", "-objects", "6", "-epochs", "1", "-policy", "none", "-drift", "0", "-fault-plan", path}, &bytes.Buffer{})
	if err == nil {
		t.Fatal("out-of-range fault plan accepted")
	}
}

// TestClusterRejectsLegacyJournal: a -data-dir whose journal was written
// in the retired per-object replicator format (the fixture is a parent-
// commit journal) must stop the run with a clear error, never re-seed.
func TestClusterRejectsLegacyJournal(t *testing.T) {
	legacy, err := os.ReadFile(filepath.Join("testdata", "legacy-journal", "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "journal.log"), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = run([]string{"-sites", "6", "-objects", "8", "-epochs", "2", "-policy", "agra", "-data-dir", dir}, &out)
	if err == nil || !strings.Contains(err.Error(), "journal.log is a plan log of the retired journal format") {
		t.Fatalf("legacy journal: error %v, want one naming the missing plan\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "summary:") {
		t.Fatalf("run went ahead on a re-seeded scheme:\n%s", out.String())
	}
}

// TestClusterJournalOfAnotherProblem: a journaled plan that does not fit
// the problem the flags describe is rejected, not mis-deployed.
func TestClusterJournalOfAnotherProblem(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-epochs", "1", "-policy", "none", "-data-dir", dir}
	if err := run(append(base, "-sites", "6", "-objects", "8"), &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	err := run(append(base, "-sites", "6", "-objects", "9"), &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "journal "+dir) {
		t.Fatalf("mismatched journal: %v", err)
	}
}

// TestClusterRejectsNegativeDurations: -serve-for used to be accepted and
// ignored; -adapt-timeout is rejected by the simulator's own validation.
func TestClusterRejectsNegativeDurations(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-adapt-timeout", "-1s"}, "negative epoch timeout"},
		{[]string{"-listen-metrics", "127.0.0.1:0", "-serve-for", "-1s"}, "-serve-for"},
	} {
		err := run(append([]string{"-sites", "6", "-objects", "8", "-epochs", "1"}, c.args...), &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: error %v, want one containing %q", c.args, err, c.want)
		}
	}
}

// TestClusterFullDiskFailsTheRun: every write to /dev/full fails with
// ENOSPC, which the -events sink used to swallow with exit status 0.
func TestClusterFullDiskFailsTheRun(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	err := run([]string{"-sites", "6", "-objects", "8", "-epochs", "1", "-events", "/dev/full"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "-events") {
		t.Fatalf("full disk under -events: error %v", err)
	}
}
