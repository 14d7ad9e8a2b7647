package main

import (
	"encoding/json"
	"os"
	"path/filepath"

	"bytes"
	"strings"
	"testing"
)

func TestBenchSingleFigureTiny(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-preset", "tiny", "-fig", "3b", "-q"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Figure 3b") {
		t.Fatalf("missing figure header:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "GRA") {
		t.Fatal("missing GRA series")
	}
}

func TestBenchCSVOutput(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-preset", "tiny", "-fig", "3b", "-csv", "-q"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(out.String(), "\n", 2)[0]
	if !strings.HasPrefix(first, "capacity %,") {
		t.Fatalf("CSV header = %q", first)
	}
}

func TestBenchFigureList(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-preset", "tiny", "-fig", "3a,3b", "-q"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Figure 3a") || !strings.Contains(out.String(), "Figure 3b") {
		t.Fatal("figure list not honoured")
	}
}

func TestBenchOverrides(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"-preset", "tiny", "-fig", "3b", "-networks", "1", "-gens", "3", "-pop", "6", "-seed", "9", "-q"}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
}

// TestBenchSeedZeroOverride pins the fs.Visit override detection: an
// explicit "-seed 0" must take effect (the presets use seed 1), not be
// mistaken for "flag not given".
func TestBenchSeedZeroOverride(t *testing.T) {
	csvAt := func(args ...string) string {
		var out, errOut bytes.Buffer
		if err := run(append([]string{"-preset", "tiny", "-fig", "3b", "-csv", "-q"}, args...), &out, &errOut); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	base := csvAt()
	if zero := csvAt("-seed", "0"); zero == base {
		t.Fatal("-seed 0 was ignored")
	}
	if one := csvAt("-seed", "1"); one != base {
		t.Fatal("-seed 1 should reproduce the tiny preset's default seed")
	}
}

// TestBenchExplicitZeroNetworksRejected: an explicit nonsense override
// should fail validation loudly instead of being silently dropped.
func TestBenchExplicitZeroNetworksRejected(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-preset", "tiny", "-fig", "3b", "-networks", "0", "-q"}, &out, &errOut); err == nil {
		t.Fatal("-networks 0 accepted")
	}
}

// TestBenchParallelMatchesSerial runs the deterministic capacity sweep at
// two worker counts end to end through the CLI and compares the CSV bytes.
func TestBenchParallelMatchesSerial(t *testing.T) {
	csvAt := func(par string) string {
		var out, errOut bytes.Buffer
		if err := run([]string{"-preset", "tiny", "-fig", "3b", "-csv", "-q", "-par", par}, &out, &errOut); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	serial := csvAt("1")
	if parallel := csvAt("3"); parallel != serial {
		t.Fatalf("-par 3 CSV diverged from -par 1:\n%s\nvs\n%s", parallel, serial)
	}
}

func TestBenchRejectsBadInput(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-preset", "warp"}, &out, &errOut); err == nil {
		t.Fatal("unknown preset accepted")
	}
	if err := run([]string{"-fig", "9z"}, &out, &errOut); err == nil {
		t.Fatal("unknown figure accepted")
	}
	if err := run([]string{"-preset", "tiny", "-fig", "3b", "-timeout", "-1s"}, &out, &errOut); err == nil || !strings.Contains(err.Error(), "-timeout") {
		t.Fatalf("negative -timeout: %v", err)
	}
}

// TestBenchSparseRejectsBadFlags: a NaN adapt fraction and a negative
// shard count fail the run instead of being reported.
func TestBenchSparseRejectsBadFlags(t *testing.T) {
	for _, flags := range [][]string{{"-sparse-adapt", "NaN"}, {"-sparse-adapt", "-0.5"}, {"-sparse-shards", "-3"}} {
		var out, errOut bytes.Buffer
		args := append([]string{"-sparse-bench", "-sparse-sites", "6", "-sparse-objects", "40"}, flags...)
		if err := run(args, &out, &errOut); err == nil {
			t.Errorf("%v accepted:\n%s", flags, out.String())
		}
	}
}

func TestBenchProgressGoesToStderr(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-preset", "tiny", "-fig", "3b"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut.String(), "fig3b") {
		t.Fatalf("progress missing from stderr: %q", errOut.String())
	}
	if strings.Contains(out.String(), "fig3b:") {
		t.Fatal("progress leaked into stdout")
	}
}

func TestBenchSummaryAndConvergence(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-preset", "tiny", "-fig", "summary", "-q"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Algorithm comparison") {
		t.Fatalf("summary missing:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-preset", "tiny", "-fig", "conv", "-q"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "convergence") {
		t.Fatalf("convergence missing:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-preset", "tiny", "-fig", "conv", "-csv", "-q"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "generation,") {
		t.Fatalf("convergence CSV header wrong: %q", strings.SplitN(out.String(), "\n", 2)[0])
	}
}

func TestBenchSVGOutput(t *testing.T) {
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	if err := run([]string{"-preset", "tiny", "-fig", "3b", "-q", "-svg", dir}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig3b.svg"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<svg") {
		t.Fatal("SVG output malformed")
	}
}

// The -sparse-shards help promises identical results at any setting; this is
// also the one place sparse.Adapt runs at more than one worker count.
func TestBenchSparseMode(t *testing.T) {
	var ref sparseBenchReport
	for _, shards := range []string{"2", "1", "8"} {
		outPath := filepath.Join(t.TempDir(), "BENCH_sparse.json")
		var out, errOut bytes.Buffer
		err := run([]string{"-sparse-bench", "-sparse-sites", "12", "-sparse-objects", "400",
			"-sparse-shards", shards, "-sparse-out", outPath}, &out, &errOut)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(outPath)
		if err != nil {
			t.Fatal(err)
		}
		var rep sparseBenchReport
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatalf("report is not valid JSON: %v\n%s", err, data)
		}
		if rep.Schema != "drp-bench-sparse/1" || rep.N != 400 || rep.M != 12 {
			t.Fatalf("unexpected report header: %+v", rep)
		}
		if rep.SolveCost > rep.DPrime || rep.SolveEvals == 0 || rep.PeakRSSBytes <= 0 {
			t.Fatalf("implausible report: %+v", rep)
		}
		if rep.AdaptEvals == 0 || rep.AdaptCost <= 0 {
			t.Fatalf("adapt round missing from report: %+v", rep)
		}
		// A timing, so only its presence is checked: 400 objects generate
		// in well under a millisecond.
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(data, &fields); err != nil {
			t.Fatal(err)
		}
		if _, ok := fields["gen_millis"]; !ok {
			t.Fatalf("report lacks gen_millis:\n%s", data)
		}
		if ref.Schema == "" {
			ref = rep
		} else if rep.SolveCost != ref.SolveCost || rep.SolveReplicas != ref.SolveReplicas || rep.SolveEvals != ref.SolveEvals ||
			rep.AdaptCost != ref.AdaptCost || rep.AdaptEvals != ref.AdaptEvals {
			t.Fatalf("-sparse-shards %s changed the result:\n%+v\nvs\n%+v", shards, rep, ref)
		}
	}
}
