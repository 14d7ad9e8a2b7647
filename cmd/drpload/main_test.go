package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"drp/internal/load"
	"drp/internal/metrics"
	"drp/internal/spans"
)

func TestLoadRunWritesGatedReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_load.json")
	var buf bytes.Buffer
	err := run([]string{
		"-sites", "4", "-objects", "20", "-rate", "300", "-duration", "800ms",
		"-slo", "p99<250ms,err<1%,tput>80%", "-out", out,
	}, &buf)
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	for _, want := range []string{"metrics cross-check: MATCH", "PASS"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, buf.String())
		}
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep load.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if !rep.SLO.Pass || rep.Metrics == nil || !rep.Metrics.Match {
		t.Fatalf("archived report not gated: %+v", rep)
	}
	if rep.Requests.Total == 0 || rep.ScheduleDigest == "" {
		t.Fatalf("archived report incomplete: %+v", rep)
	}
	if rep.Requests.Total != rep.Read.Count+rep.Write.Count {
		t.Fatalf("request breakdown inconsistent: %d != %d+%d",
			rep.Requests.Total, rep.Read.Count, rep.Write.Count)
	}
}

func TestLoadSLOFailureExitsNonZero(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-sites", "3", "-objects", "10", "-rate", "200", "-duration", "400ms",
		"-slo", "p50<1ns", // unmeetable
	}, &buf)
	if err == nil {
		t.Fatalf("unmeetable SLO did not fail the run:\n%s", buf.String())
	}
	if !strings.Contains(err.Error(), "SLO") {
		t.Fatalf("error does not name the SLO: %v", err)
	}
}

func TestLoadCompareReplaysIdenticalSchedule(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_load.json")
	var buf bytes.Buffer
	err := run([]string{
		"-sites", "4", "-objects", "16", "-rate", "250", "-duration", "700ms",
		"-compare", "none,sra", "-out", out,
	}, &buf)
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "schedules IDENTICAL") {
		t.Fatalf("compare did not certify identical schedules:\n%s", buf.String())
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var cmp load.Compare
	if err := json.Unmarshal(data, &cmp); err != nil {
		t.Fatal(err)
	}
	if !cmp.SameSchedule || cmp.A.ScheduleDigest != cmp.B.ScheduleDigest {
		t.Fatalf("comparison digests differ: %s vs %s", cmp.A.ScheduleDigest, cmp.B.ScheduleDigest)
	}
	if cmp.A.Scheme != "none" || cmp.B.Scheme != "sra" {
		t.Fatalf("schemes mislabeled: %q vs %q", cmp.A.Scheme, cmp.B.Scheme)
	}
}

func TestLoadProfileFileDrivesRun(t *testing.T) {
	dir := t.TempDir()
	profile := filepath.Join(dir, "load.json")
	if err := os.WriteFile(profile, []byte(`{
  "seed": 4, "rate": 300, "duration_ms": 500, "arrival": "bursty",
  "burst_mult": 6, "burst_start_ms": 100, "burst_end_ms": 300,
  "burst_focus": 0.8, "write_fraction": 0.1, "skew": 0.9, "geo": "lan"
}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-sites", "4", "-objects", "12", "-profile", profile}, &buf); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "arrival=bursty geo=lan") {
		t.Fatalf("profile file ignored:\n%s", buf.String())
	}
}

// TestLoadTraceFileCrossChecksReport runs with -trace-out and verifies
// the span file tells the same story as the report: one root span per
// request, split by op exactly as the report counts them.
func TestLoadTraceFileCrossChecksReport(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "BENCH_load.json")
	tracePath := filepath.Join(dir, "trace.jsonl")
	var buf bytes.Buffer
	err := run([]string{
		"-sites", "3", "-objects", "12", "-rate", "200", "-duration", "500ms",
		"-out", outPath, "-trace-out", tracePath,
	}, &buf)
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}

	var rep load.Report
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sps, err := spans.Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	var reads, writes int64
	for _, tr := range spans.Assemble(sps) {
		switch tr.Root().Name {
		case "read":
			reads++
		case "write":
			writes++
		}
	}
	if reads != rep.Requests.Reads || writes != rep.Requests.Writes {
		t.Fatalf("span file holds %d read / %d write traces; report claims %d / %d",
			reads, writes, rep.Requests.Reads, rep.Requests.Writes)
	}
}

func TestLoadRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-slo", "p42<1ms"},
		{"-compare", "none"},
		{"-compare", "none,sra,gra"},
		{"-arrival", "chaotic"},
		{"-rate", "0"},
		{"-workers", "-5"},
		{"-origins", "1,nope"},
		{"-origins", "2.5x,1,1,1"},
		{"-origins", "inf,1,1,1"},
		{"-origins", "NaN,1,1,1"},
		{"-origins", "1e308,1e308,1,0"},
	} {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestLoadCompareRejectsSingleRunSinks: -compare used to accept -trace-out
// (leaving an empty span file) and -metrics-out (writing nothing).
func TestLoadCompareRejectsSingleRunSinks(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct{ flag, path string }{
		{"-trace-out", filepath.Join(dir, "t.jsonl")},
		{"-metrics-out", filepath.Join(dir, "m.json")},
	} {
		err := run([]string{"-sites", "3", "-objects", "8", "-rate", "100", "-duration", "200ms",
			"-compare", "none,sra", c.flag, c.path}, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("-compare with %s: error %v, want one naming the flag", c.flag, err)
		}
		if _, statErr := os.Stat(c.path); statErr == nil {
			t.Errorf("-compare with %s left %s behind", c.flag, c.path)
		}
	}
}

func TestLoadMetricsOutWritesSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	var buf bytes.Buffer
	if err := run([]string{"-sites", "3", "-objects", "8", "-rate", "100", "-duration", "200ms", "-metrics-out", path}, &buf); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	snap, err := metrics.ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := snap.CounterValue("drp_net_replica_reads_total", map[string]string{"source": "local"}); !ok || v == 0 {
		t.Errorf("snapshot local-read counter = %d, %v", v, ok)
	}
}
