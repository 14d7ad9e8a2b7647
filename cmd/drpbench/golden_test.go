package main

// Golden determinism tests: the quick-preset Figure 1a campaign and every
// deterministic figure of a two-network tiny campaign are pinned byte for
// byte. Any change to the generator, the solvers, the parallel sweep
// reduction or the CSV renderer that moves a single digit fails here — and
// the comparisons across GOMAXPROCS settings pin that the worker fan-out is
// pure plumbing, not a source of nondeterminism.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"drp/internal/metrics"
)

// setProcs sets GOMAXPROCS, which sizes every worker pool of a campaign, to
// n until the test ends.
func setProcs(t testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// benchCSV runs the quick fig-1a campaign at GOMAXPROCS procs and returns
// the CSV bytes plus the JSON of the run's deterministic metric snapshot
// (counters and histograms, minus wall-clock series).
func benchCSV(t *testing.T, procs int) ([]byte, string) {
	t.Helper()
	setProcs(t, procs)
	metricsPath := filepath.Join(t.TempDir(), "metrics.json")
	var out, errOut bytes.Buffer
	args := []string{"-preset", "quick", "-fig", "1a", "-csv", "-q", "-metrics-out", metricsPath}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	snap, err := metrics.ReadSnapshotFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	det, err := json.Marshal(snap.Deterministic())
	if err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), string(det)
}

func TestQuickFig1aMatchesGoldenAtAnyParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second campaign; skipped in -short mode")
	}
	goldenPath := filepath.Join("testdata", "quick-fig1a.golden.csv")
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	serial, serialMetrics := benchCSV(t, 1)
	if !bytes.Equal(serial, golden) {
		t.Errorf("GOMAXPROCS=1 output deviates from %s:\ngot:\n%s\nwant:\n%s", goldenPath, serial, golden)
	}
	wide, wideMetrics := benchCSV(t, 8)
	if !bytes.Equal(wide, serial) {
		t.Errorf("GOMAXPROCS=8 output differs from GOMAXPROCS=1:\n8:\n%s\n1:\n%s", wide, serial)
	}
	// The parity extends to telemetry: the instrumented campaign's
	// deterministic metric snapshot is identical at any worker count.
	if wideMetrics != serialMetrics {
		t.Errorf("GOMAXPROCS=8 metric snapshot differs from GOMAXPROCS=1:\n8:\n%s\n1:\n%s", wideMetrics, serialMetrics)
	}
	if serialMetrics == `{"instruments":null}` || serialMetrics == `{"instruments":[]}` {
		t.Error("instrumented campaign produced an empty deterministic snapshot")
	}
}

// tinyTimeAxes is what the runtime figures of the two-network tiny campaign
// pin: their values are wall-clock times, so only each header and x column.
const tinyTimeAxes = `sites,SRA U=2%,SRA U=10%
8
12

sites,GRA U=2%,GRA U=10%
8
12

% objects changed,Current+AGRA,AGRA+5GRA,AGRA+10GRA,Current+8GRA,Current+10GRA,10GRA
20

`

// TestTinyFiguresMatchGoldenAtAnyParallelism runs every sweep of the tiny
// preset on two networks (Tiny's one would leave the cell fan-out idle) at
// GOMAXPROCS 1, 2 and 8.
func TestTinyFiguresMatchGoldenAtAnyParallelism(t *testing.T) {
	goldenPath := filepath.Join("testdata", "tiny-figs.golden.csv")
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	csvAt := func(figs string) string {
		var out, errOut bytes.Buffer
		if err := run([]string{"-preset", "tiny", "-networks", "2", "-fig", figs, "-csv", "-q"}, &out, &errOut); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	for _, procs := range []int{1, 2, 8} {
		setProcs(t, procs)
		if got := csvAt("1a,1b,1c,1d,3a,3b,4a,4b,4c,conv"); got != string(golden) {
			t.Errorf("GOMAXPROCS=%d output deviates from %s:\ngot:\n%s\nwant:\n%s", procs, goldenPath, got, golden)
		}
		// A line after a blank one is a figure's header; every other line
		// keeps only its x value.
		lines := strings.Split(csvAt("2a,2b,4d"), "\n")
		for i := 1; i < len(lines); i++ {
			if lines[i-1] != "" {
				lines[i], _, _ = strings.Cut(lines[i], ",")
			}
		}
		if got := strings.Join(lines, "\n"); got != tinyTimeAxes {
			t.Errorf("GOMAXPROCS=%d runtime figures' headers and x columns:\ngot:\n%s\nwant:\n%s", procs, got, tinyTimeAxes)
		}
	}
}

// TestBudgetedTinyFiguresMatchAtAnyGOMAXPROCS: a -budget that stops GA
// cells midway, AGRA's inside its micro-GA fan-out, still gives the same CSV
// at GOMAXPROCS 1 and 8. The GOMAXPROCS=8 campaign runs three times, since
// a scheduling-dependent stop would show in some runs only.
func TestBudgetedTinyFiguresMatchAtAnyGOMAXPROCS(t *testing.T) {
	args := []string{"-preset", "tiny", "-networks", "2", "-fig", "1a,3b,4a,4b,4c,conv", "-budget", "200", "-csv", "-q"}
	var ref string
	for _, procs := range []int{1, 8, 8, 8} {
		setProcs(t, procs)
		var out, errOut bytes.Buffer
		if err := run(args, &out, &errOut); err != nil {
			t.Fatal(err)
		}
		if ref == "" {
			ref = out.String()
			continue
		}
		if got := out.String(); got != ref {
			t.Fatalf("GOMAXPROCS=%d budgeted output differs from GOMAXPROCS=1:\n%d:\n%s\n1:\n%s", procs, procs, got, ref)
		}
	}
}
