package main

import (
	"fmt"

	"drp/internal/metrics"
	"drp/internal/trace"

	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"drp"
)

func writeProblem(t *testing.T) string {
	t.Helper()
	p, err := drp.Generate(drp.NewSpec(6, 8, 0.05, 0.2), 1)
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

func TestSolveAlgorithms(t *testing.T) {
	path := writeProblem(t)
	for _, algo := range []string{"sra", "random", "readonly", "none"} {
		var out bytes.Buffer
		if err := run([]string{"-algo", algo, "-in", path}, &out); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !strings.Contains(out.String(), "NTC savings") {
			t.Fatalf("%s output missing savings:\n%s", algo, out.String())
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
	pf, err := os.Open(path)
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
	if _, err := drp.ReadScheme(p, sf); err != nil {
		t.Fatalf("scheme output unreadable: %v", err)
	}
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
	if err := run([]string{"-algo", "magic", "-in", path}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown algorithm accepted")
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
	bad := [][]string{
		{"-algo", "sra", "-pop", "10", "-in", path},
		{"-algo", "sra", "-seed", "2", "-in", path},
		{"-algo", "gra", "-maxbits", "10", "-in", path},
		{"-algo", "random", "-timeout", "1s", "-in", path},
		{"-algo", "readonly", "-budget", "5", "-in", path},
		{"-algo", "none", "-progress", "-in", path},
		{"-algo", "optimal", "-progress", "-in", path},
		{"-algo", "hill", "-gens", "3", "-in", path},
	}
	for _, args := range bad {
		err := run(args, &bytes.Buffer{})
		if err == nil {
			t.Errorf("args %v accepted", args)
			continue
		}
		if !strings.Contains(err.Error(), "does not apply") {
			t.Errorf("args %v: unexpected error %v", args, err)
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

func TestSolveParFlagDeterministic(t *testing.T) {
	path := writeProblem(t)
	outputs := make([]string, 0, 2)
	for _, par := range []string{"1", "4"} {
		var out bytes.Buffer
		if err := run([]string{"-algo", "gra", "-pop", "8", "-gens", "5", "-par", par, "-in", path}, &out); err != nil {
			t.Fatal(err)
		}
		// Strip the timing lines, which legitimately vary.
		var kept []string
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "elapsed:") {
				continue
			}
			kept = append(kept, line)
		}
		outputs = append(outputs, strings.Join(kept, "\n"))
	}
	if outputs[0] != outputs[1] {
		t.Fatalf("-par changed the result:\n%s\nvs\n%s", outputs[0], outputs[1])
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
	tf, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Generate(p, 4).Encode(tf); err != nil {
		t.Fatal(err)
	}
	tf.Close()

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

func TestSolveGRASparse(t *testing.T) {
	path := writeProblem(t)
	var out bytes.Buffer
	if err := run([]string{"-algo", "gra", "-sparse", "-shards", "2", "-in", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "core:        sparse") {
		t.Fatalf("output missing sparse core line:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "NTC savings") {
		t.Fatalf("output missing savings:\n%s", out.String())
	}
}

func TestSolveSparseFlagValidation(t *testing.T) {
	path := writeProblem(t)
	var out bytes.Buffer
	if err := run([]string{"-algo", "gra", "-shards", "2", "-in", path}, &out); err == nil {
		t.Fatal("-shards without -sparse accepted")
	}
	if err := run([]string{"-algo", "sra", "-sparse", "-in", path}, &out); err == nil {
		t.Fatal("-sparse with -algo sra accepted")
	}
}
