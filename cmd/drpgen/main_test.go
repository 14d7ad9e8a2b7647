package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"drp"
	"drp/internal/load"
)

func TestRunWritesValidProblem(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-sites", "6", "-objects", "8", "-seed", "3"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	p, err := drp.ReadProblem(&out)
	if err != nil {
		t.Fatalf("generated JSON unreadable: %v", err)
	}
	if p.Sites() != 6 || p.Objects() != 8 {
		t.Fatalf("dims %d×%d", p.Sites(), p.Objects())
	}
}

func TestRunToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.json")
	if err := run([]string{"-sites", "4", "-objects", "5", "-o", path}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := drp.ReadProblem(f); err != nil {
		t.Fatalf("file unreadable: %v", err)
	}
}

func TestRunRejectsBadSpec(t *testing.T) {
	for _, args := range [][]string{
		{"-sites", "0"},
		{"-update", "-1"},
		{"-update", "1e300"},
		{"-update", "1e9"},
		{"-capacity", "NaN"},
		{"-capacity", "1e300"},
		{"-zipf", "-1"},
		{"-zipf", "NaN"},
	} {
		if err := run(append([]string{"-sites", "4", "-objects", "6"}, args...), &bytes.Buffer{}); err == nil {
			t.Errorf("drpgen %v accepted", args)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-no-such-flag"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestRunWritesTrace(t *testing.T) {
	dir := t.TempDir()
	problemPath := filepath.Join(dir, "p.json")
	tracePath := filepath.Join(dir, "t.trace")
	if err := run([]string{"-sites", "4", "-objects", "5", "-o", problemPath, "-trace", tracePath}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	tf, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	sched, err := load.ReadSchedule(tf, 4, 5)
	if err != nil {
		t.Fatalf("trace unreadable: %v", err)
	}
	if len(sched.Requests) == 0 {
		t.Fatal("trace is empty")
	}
}

func TestRunZipfFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-sites", "5", "-objects", "20", "-zipf", "0.9"}, &out); err != nil {
		t.Fatal(err)
	}
	if _, err := drp.ReadProblem(&out); err != nil {
		t.Fatalf("zipf-generated JSON unreadable: %v", err)
	}
}
