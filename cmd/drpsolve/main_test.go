package main

import (
	"fmt"

	"drp/internal/load"
	"drp/internal/metrics"

	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"drp"
)

// setProcs sets GOMAXPROCS, which sizes the solvers' worker pools, to n
// until the test ends.
func setProcs(t testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func writeProblem(t *testing.T) string { return writeProblemOf(t, 6, 8, 0.2) }

// writeTinyProblem is small enough (8 free placement bits) for -algo optimal.
func writeTinyProblem(t *testing.T) string { return writeProblemOf(t, 3, 4, 0.2) }

func writeProblemOf(t *testing.T, sites, objects int, capacity float64) string {
	t.Helper()
	p, err := drp.Generate(drp.NewSpec(sites, objects, 0.05, capacity), 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "p.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := p.Encode(f); err != nil {
		t.Fatal(err)
	}
	return path
}

// readScheme loads a scheme drpsolve wrote with -out back against its problem.
func readScheme(t *testing.T, problemPath, schemePath string) *drp.Scheme {
	t.Helper()
	pf, err := os.Open(problemPath)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	p, err := drp.ReadProblem(pf)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := os.Open(schemePath)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	scheme, err := drp.ReadScheme(p, sf)
	if err != nil {
		t.Fatalf("scheme output unreadable: %v", err)
	}
	return scheme
}

// Every algorithm the flag table names runs end to end and prints its own
// name: the table and the switch in run cannot drift apart.
func TestSolveAlgorithms(t *testing.T) {
	path := writeTinyProblem(t)
	for algo := range flagsFor {
		var out bytes.Buffer
		if err := run([]string{"-algo", algo, "-in", path}, &out); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !strings.Contains(out.String(), "algorithm:   "+algo+"\n") || !strings.Contains(out.String(), "NTC savings") {
			t.Fatalf("%s output missing its name or savings:\n%s", algo, out.String())
		}
	}
}

func TestSolveGRAWithSchemeOutput(t *testing.T) {
	path := writeProblem(t)
	schemePath := filepath.Join(t.TempDir(), "scheme.json")
	var out bytes.Buffer
	err := run([]string{"-algo", "gra", "-pop", "8", "-gens", "5", "-in", path, "-out", schemePath}, &out)
	if err != nil {
		t.Fatal(err)
	}
	// The scheme must load back against the problem.
	readScheme(t, path, schemePath)
}

func TestSolveOptimalGate(t *testing.T) {
	path := writeProblem(t)
	// 6 sites × 8 objects = 40 free bits: must be refused at maxbits 24.
	if err := run([]string{"-algo", "optimal", "-in", path}, &bytes.Buffer{}); err == nil {
		t.Fatal("optimal accepted an oversized instance")
	}
}

func TestSolveUnknownAlgorithm(t *testing.T) {
	path := writeProblem(t)
	err := run([]string{"-algo", "magic", "-in", path}, &bytes.Buffer{})
	if err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	for algo := range flagsFor {
		if !strings.Contains(err.Error(), algo) {
			t.Errorf("error %q does not offer %q", err, algo)
		}
	}
}

func TestSolveMissingInput(t *testing.T) {
	if err := run([]string{"-in", "/nonexistent/p.json"}, &bytes.Buffer{}); err == nil {
		t.Fatal("missing input accepted")
	}
}

func TestSolveHillClimb(t *testing.T) {
	path := writeProblem(t)
	var out bytes.Buffer
	if err := run([]string{"-algo", "hill", "-in", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "NTC savings") {
		t.Fatalf("hill output missing savings:\n%s", out.String())
	}
}

func TestSolveRejectsInapplicableFlags(t *testing.T) {
	path := writeProblem(t)
	// A value for every algorithm-specific flag; each (algorithm, flag) pair
	// outside flagsFor must be refused by name.
	values := map[string]string{
		"seed": "2", "pop": "10", "gens": "3", "maxbits": "10",
		"timeout": "1s", "budget": "5", "progress": "true",
	}
	for algo, spec := range flagsFor {
		for name := range spec {
			if _, ok := values[name]; !ok {
				t.Fatalf("flagsFor[%q] names -%s, which this test has no value for", algo, name)
			}
		}
		for name, v := range values {
			if spec[name] {
				continue
			}
			args := []string{"-algo", algo, "-" + name + "=" + v, "-in", path}
			err := run(args, &bytes.Buffer{})
			want := fmt.Sprintf("flag -%s does not apply to algorithm %q", name, algo)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("args %v: got %v, want %q", args, err, want)
			}
		}
	}
	// The same flags at their defaults (unset) are fine.
	if err := run([]string{"-algo", "sra", "-in", path}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveAnytimeFlags(t *testing.T) {
	path := writeProblem(t)
	var out bytes.Buffer
	// A generous budget never fires: the run completes and reports stats.
	if err := run([]string{"-algo", "gra", "-pop", "8", "-gens", "5", "-budget", "1000000", "-timeout", "1m", "-in", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "stopped:     completed") {
		t.Fatalf("missing completed stop line:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "evaluations: ") {
		t.Fatalf("missing evaluations line:\n%s", out.String())
	}

	// A tiny budget fires and is reported, but the scheme is still printed.
	out.Reset()
	if err := run([]string{"-algo", "gra", "-pop", "8", "-gens", "50", "-budget", "10", "-in", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "stopped:     budget") {
		t.Fatalf("missing budget stop line:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "NTC savings") {
		t.Fatalf("interrupted run printed no scheme summary:\n%s", out.String())
	}

	// A negative cap is a typo, not "already expired".
	if err := run([]string{"-algo", "sra", "-timeout", "-1s", "-in", path}, &out); err == nil || !strings.Contains(err.Error(), "-timeout") {
		t.Fatalf("negative -timeout: %v", err)
	}
}

// TestSolveParFlagDeterministic: a GRA run prints the same report at
// GOMAXPROCS 1 and 4, the worker counts its evaluation pool takes.
func TestSolveParFlagDeterministic(t *testing.T) {
	path := writeProblem(t)
	outputs := make([]string, 0, 2)
	for _, procs := range []int{1, 4} {
		setProcs(t, procs)
		var out bytes.Buffer
		if err := run([]string{"-algo", "gra", "-pop", "8", "-gens", "5", "-in", path}, &out); err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, stable(out.String()))
	}
	if outputs[0] != outputs[1] {
		t.Fatalf("GOMAXPROCS changed the result:\n%s\nvs\n%s", outputs[0], outputs[1])
	}
}

func TestSolveTelemetryOutputs(t *testing.T) {
	path := writeProblem(t)
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "metrics.json")
	eventsPath := filepath.Join(dir, "events.jsonl")
	manifestPath := filepath.Join(dir, "manifest.json")
	var out bytes.Buffer
	err := run([]string{
		"-algo", "gra", "-pop", "8", "-gens", "5", "-in", path,
		"-metrics-out", metricsPath, "-events", eventsPath, "-manifest", manifestPath,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}

	// The snapshot parses and carries the solver families.
	snap, err := metrics.ReadSnapshotFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, is := range snap.Instruments {
		names[is.Name] = true
	}
	for _, want := range []string{"drp_solver_iterations_total", "drp_solver_runs_total", "drp_solver_evaluations_total"} {
		if !names[want] {
			t.Errorf("snapshot missing %s (have %v)", want, names)
		}
	}

	// The manifest records the result, and its eq. 4 terms sum to final D.
	manifestData, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Tool      string           `json:"tool"`
		Algorithm string           `json:"algorithm"`
		FinalD    int64            `json:"final_d"`
		Terms     map[string]int64 `json:"eq4_terms"`
		Stopped   string           `json:"stopped"`
	}
	if err := json.Unmarshal(manifestData, &man); err != nil {
		t.Fatal(err)
	}
	if man.Tool != "drpsolve" || man.Algorithm != "gra" || man.Stopped != "completed" {
		t.Errorf("manifest header wrong: %+v", man)
	}
	var termSum int64
	for _, v := range man.Terms {
		termSum += v
	}
	if len(man.Terms) != 3 || termSum != man.FinalD {
		t.Errorf("eq4_terms %v sum to %d, want final_d %d", man.Terms, termSum, man.FinalD)
	}

	// The event log holds per-iteration progress plus the finish record.
	eventsData, err := os.ReadFile(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(eventsData), `"event":"solver.progress"`) ||
		!strings.Contains(string(eventsData), `"event":"solver.finished"`) {
		t.Errorf("event log missing expected records:\n%s", eventsData)
	}
}

func TestSolveReplaysTrace(t *testing.T) {
	dir := t.TempDir()
	problemPath := filepath.Join(dir, "p.json")
	tracePath := filepath.Join(dir, "t.jsonl")
	// Generate problem + trace with drpgen's package-level logic: reuse the
	// drp API directly to avoid cross-command coupling.
	p, err := drp.Generate(drp.NewSpec(5, 6, 0.1, 0.2), 3)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := os.Create(problemPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Encode(pf); err != nil {
		t.Fatal(err)
	}
	pf.Close()
	var sched bytes.Buffer
	if err := load.FromCounts(p, 4).EncodeTo(&sched); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tracePath, sched.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := run([]string{"-algo", "sra", "-in", problemPath, "-replay", tracePath}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "replayed:") {
		t.Fatalf("replay output missing:\n%s", out.String())
	}
	// The replayed NTC must equal the solved scheme's model cost.
	scheme := drp.SRA(p).Scheme
	want := fmt.Sprintf("measured NTC %d", scheme.Cost())
	if !strings.Contains(out.String(), want) {
		t.Fatalf("replay NTC does not match model (%s):\n%s", want, out.String())
	}
}

// TestSolveRefusesLegacyTrace: a JSON-lines trace (the fixture is one
// drpgen -trace wrote before traces became schedule lines) is refused with
// the message that says how to get a readable one, and nothing is replayed.
func TestSolveRefusesLegacyTrace(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-in", writeProblemOf(t, 3, 2, 0.15), "-replay", filepath.Join("testdata", "legacy-trace.jsonl")}, &out)
	if err == nil || !strings.Contains(err.Error(), "JSON-lines request traces are no longer read; regenerate with drpgen -trace") {
		t.Fatalf("legacy trace: error %v, want the regenerate message", err)
	}
	if strings.Contains(out.String(), "replayed:") {
		t.Fatalf("legacy trace replayed:\n%s", out.String())
	}
}

// stable drops the one line of drpsolve's report that varies run to run.
func stable(out string) string {
	var kept []string
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "elapsed:") {
			kept = append(kept, line)
		}
	}
	return strings.Join(kept, "\n")
}

// -algo sparse on drpgen's defaults (M=50, N=200, seed 1) prints what the
// removed `-algo gra -sparse` printed, under its own name, at GOMAXPROCS 1,
// 2 and 8, and the scheme it writes re-prices to the same D on the dense
// evaluator.
func TestSolveGRASparse(t *testing.T) {
	path := writeProblemOf(t, 50, 200, 0.15)
	schemePath := filepath.Join(t.TempDir(), "scheme.json")
	var ref string
	for _, procs := range []int{1, 2, 8} {
		setProcs(t, procs)
		var out bytes.Buffer
		if err := run([]string{"-algo", "sparse", "-in", path, "-out", schemePath}, &out); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{
			"algorithm:   sparse\n", "D (solved):  16492911\n", "replicas:    287 beyond primaries\n",
			"evaluations: 1407\n", "stopped:     completed\n",
		} {
			if !strings.Contains(out.String(), want) {
				t.Fatalf("GOMAXPROCS=%d: output missing %q:\n%s", procs, want, out.String())
			}
		}
		if ref == "" {
			ref = stable(out.String())
		} else if got := stable(out.String()); got != ref {
			t.Fatalf("GOMAXPROCS=%d changed the report:\n%s\nvs\n%s", procs, got, ref)
		}
	}
	if got := readScheme(t, path, schemePath).Cost(); got != 16492911 {
		t.Fatalf("-out scheme re-prices to %d on the dense evaluator, want 16492911", got)
	}
}

// The anytime flags act on -algo sparse (TestSolveRejectsInapplicableFlags
// covers the GA's flags).
func TestSolveSparseFlagValidation(t *testing.T) {
	path := writeProblem(t)
	var out bytes.Buffer
	if err := run([]string{"-algo", "sparse", "-budget", "5", "-timeout", "1m", "-progress", "-in", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "stopped:     budget") || !strings.Contains(out.String(), "NTC savings") {
		t.Fatalf("budget-stopped sparse run printed no stop reason or scheme:\n%s", out.String())
	}
}

// One run leaves three artifacts; each names the algorithm, and only it.
func TestSolveArtifactsNameOneAlgorithm(t *testing.T) {
	path := writeTinyProblem(t)
	type named struct {
		Algorithm string `json:"algorithm"`
	}
	for _, algo := range []string{"sra", "gra", "hill", "optimal", "sparse"} {
		dir := t.TempDir()
		metricsPath := filepath.Join(dir, "metrics.json")
		eventsPath := filepath.Join(dir, "events.jsonl")
		manifestPath := filepath.Join(dir, "manifest.json")
		err := run([]string{"-algo", algo, "-in", path,
			"-metrics-out", metricsPath, "-events", eventsPath, "-manifest", manifestPath}, &bytes.Buffer{})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		carried := map[string]bool{}
		see := func(artifact, name string) {
			carried[artifact] = true
			if name != algo {
				t.Errorf("-algo %s: %s names algorithm %q", algo, artifact, name)
			}
		}
		snap, err := metrics.ReadSnapshotFile(metricsPath)
		if err != nil {
			t.Fatal(err)
		}
		for _, is := range snap.Instruments {
			see("metrics", is.Labels["algorithm"])
		}
		eventsData, err := os.ReadFile(eventsPath)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(eventsData)), "\n") {
			var ev named
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("%s: event %q: %v", algo, line, err)
			}
			see("events", ev.Algorithm)
		}
		manifestData, err := os.ReadFile(manifestPath)
		if err != nil {
			t.Fatal(err)
		}
		var man named
		if err := json.Unmarshal(manifestData, &man); err != nil {
			t.Fatal(err)
		}
		see("manifest", man.Algorithm)
		if len(carried) != 3 {
			t.Errorf("-algo %s: only %v carry a name", algo, carried)
		}
	}
}
