package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"drp"
	"drp/internal/cli"
)

func TestNetRunSRA(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-sites", "5", "-objects", "8"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "model and wire agree exactly") {
		t.Fatalf("model/wire mismatch:\n%s", out.String())
	}
}

func TestNetRunNone(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-sites", "4", "-objects", "6", "-algo", "none"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "0 replicas") {
		t.Fatalf("none policy placed replicas:\n%s", out.String())
	}
}

func TestNetRunGRA(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-sites", "5", "-objects", "6", "-algo", "gra", "-pop", "6", "-gens", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "model and wire agree exactly") {
		t.Fatalf("model/wire mismatch:\n%s", out.String())
	}
}

// TestNetGensZeroRunsNoGeneration: -gens 0 used to fall back to GRA's
// default 80 generations; it deploys the best of the seeded population.
func TestNetGensZeroRunsNoGeneration(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-sites", "8", "-objects", "20", "-algo", "gra", "-gens", "0"}, &out); err != nil {
		t.Fatal(err)
	}
	p, err := (&cli.Problem{Sites: 8, Objects: 20, Update: 0.05, Capacity: 0.15, Seed: 1}).Load()
	if err != nil {
		t.Fatal(err)
	}
	params := drp.DefaultGRAParams()
	params.Seed, params.PopSize, params.Generations = 1, 16, 0
	res, err := drp.GRA(p, params)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("eq.4 model prediction:   %d\n", res.Scheme.Cost()); !strings.Contains(out.String(), want) {
		t.Fatalf("-gens 0 did not deploy the generation-0 scheme (%q):\n%s", want, out.String())
	}
}

func TestNetRunBadAlgo(t *testing.T) {
	if err := run([]string{"-algo", "nope"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestNetRunMissingInput(t *testing.T) {
	if err := run([]string{"-in", "/does/not/exist"}, &bytes.Buffer{}); err == nil {
		t.Fatal("missing input accepted")
	}
}

func TestNetRunFaultPlan(t *testing.T) {
	plan := `{"seed":1,"events":[
		{"kind":"crash","site":1,"step":1,"until":20},
		{"kind":"latency","site":2,"step":1,"until":10,"delay_ms":1}
	]}`
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(path, []byte(plan), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run([]string{"-sites", "5", "-objects", "8",
		"-fault-plan", path, "-retry", "3", "-req-timeout", "2s"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"injecting 2 fault events",
		"reads served/failed",
		"writes served/queued",
		"cluster fully reconverged",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestNetWriterCatchesUpThroughOwnWrite: site 3 is down for the whole
// measurement period (6 369 requests), so every broadcast misses it and
// its own writes queue. Flushing them ships each to its primary, and site
// 3 adopts the new version on the way back: objects 5 and 26, which it
// replicates, end at their primary's version with nothing left to re-ship.
// Reconcile must charge nothing for them (896 while missed broadcasts were
// logged as stale marks that a catch-up did not clear).
func TestNetWriterCatchesUpThroughOwnWrite(t *testing.T) {
	plan := `{"seed":3,"events":[
		{"kind":"crash","site":3,"step":1,"until":6370},
		{"kind":"drop","site":3,"peer":-1,"step":1,"until":6370,"prob":0.3},
		{"kind":"blackhole","site":0,"peer":2,"step":200,"until":2000}
	]}`
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(path, []byte(plan), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run([]string{"-sites", "8", "-objects", "30", "-seed", "3", "-update", "0.3", "-capacity", "0.5",
		"-retry", "2", "-fault-plan", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"writes served/queued:    1035/427",
		"reconciled replicas:     cost 0 (0 still stale)",
		"cluster fully reconverged",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestNetRunDurableRecovers(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-sites", "5", "-objects", "8",
		"-data-dir", dir, "-fsync", "never", "-snapshot-every", "16"}

	var first bytes.Buffer
	if err := run(args, &first); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first.String(), "persisting to "+dir) {
		t.Fatalf("fresh run did not announce persistence:\n%s", first.String())
	}
	if !strings.Contains(first.String(), "model and wire agree exactly") {
		t.Fatalf("model/wire mismatch:\n%s", first.String())
	}

	// A rerun on the same directory replays the WALs: the scheme is already
	// deployed, so the redeploy migration is free.
	var second bytes.Buffer
	if err := run(args, &second); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(second.String(), "recovered 5 of 5 sites from "+dir) {
		t.Fatalf("rerun did not recover from disk:\n%s", second.String())
	}
	if !strings.Contains(second.String(), "migration cost 0") {
		t.Fatalf("recovered scheme was re-shipped:\n%s", second.String())
	}
	if !strings.Contains(second.String(), "model and wire agree exactly") {
		t.Fatalf("model/wire mismatch after recovery:\n%s", second.String())
	}
}

func TestNetRunBadDurableFlags(t *testing.T) {
	if err := run([]string{"-sites", "4", "-objects", "6", "-snapshot-every", "8"}, &bytes.Buffer{}); err == nil {
		t.Fatal("-snapshot-every without -data-dir accepted")
	}
	if err := run([]string{"-sites", "4", "-objects", "6",
		"-data-dir", t.TempDir(), "-fsync", "sometimes"}, &bytes.Buffer{}); err == nil {
		t.Fatal("bad fsync policy accepted")
	}
}

func TestNetRunFaultPlanRejectsBadPlan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(path, []byte(`{"seed":1,"events":[{"kind":"crash","site":99,"step":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-sites", "4", "-objects", "6", "-fault-plan", path}, &bytes.Buffer{}); err == nil {
		t.Fatal("out-of-range fault plan accepted")
	}
}

// TestNetRejectsIgnoredValues: values the parent accepted and ignored.
func TestNetRejectsIgnoredValues(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-retry", "0"}, "-retry"},
		{[]string{"-retry", "-2"}, "-retry"},
		{[]string{"-req-timeout", "-1s"}, "-req-timeout"},
		{[]string{"-gens", "-5"}, "-gens"},
		{[]string{"-pop", "-3"}, "-pop"},
		{[]string{"-listen-metrics", "127.0.0.1:0", "-serve-for", "-1s"}, "-serve-for"},
	} {
		err := run(append([]string{"-sites", "4", "-objects", "6"}, c.args...), &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: error %v, want one naming %s", c.args, err, c.want)
		}
	}
}
