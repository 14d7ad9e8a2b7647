package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"drp/internal/core"
)

func TestVerifyBoundedSoakPasses(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-iters", "5", "-seed", "1", "-quiet"}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "result:    PASS") {
		t.Fatalf("missing PASS verdict:\n%s", s)
	}
	if !strings.Contains(s, "instances: 5") {
		t.Fatalf("instance count not reported:\n%s", s)
	}
	if !strings.Contains(s, "eq4-oracle=5") {
		t.Fatalf("per-check counters not reported:\n%s", s)
	}
}

func TestVerifyDurationOnly(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-duration", "300ms", "-seed", "2", "-quiet"}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "stopped:   deadline") {
		t.Fatalf("deadline stop not reported:\n%s", out.String())
	}
}

func TestVerifyCheckSubsetAndList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "eq4-oracle") || !strings.Contains(out.String(), "optimal-gap") {
		t.Fatalf("listing incomplete:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-iters", "3", "-checks", "perm-sites,zero-object", "-quiet"}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "eq4-oracle") {
		t.Fatalf("unselected check ran:\n%s", out.String())
	}
}

func TestVerifyRejectsBadInvocations(t *testing.T) {
	for name, args := range map[string][]string{
		"no stop condition": {},
		"unknown check":     {"-iters", "1", "-checks", "nope"},
		"stray argument":    {"-iters", "1", "extra"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestVerifyPassingSoakWritesNoReproducer: -out stays untouched on PASS.
func TestVerifyPassingSoakWritesNoReproducer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "repro.json")
	var out bytes.Buffer
	if err := run([]string{"-iters", "2", "-seed", "4", "-out", path, "-quiet"}, &out); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("reproducer file created on a passing soak (err=%v)", err)
	}
}

// TestVerifyFailureWritesShrunkenReproducer drives the acceptance path end
// to end: a write-blind evaluator (injected through the test-only hook)
// fails the eq4-oracle check, the CLI exits non-nil, and the -out file holds
// a decodable reproducer of at most 4 sites × 4 objects.
func TestVerifyFailureWritesShrunkenReproducer(t *testing.T) {
	testCost = func(s *core.Scheme) int64 {
		p := s.Problem()
		var d int64
		for i := 0; i < p.Sites(); i++ {
			for k := 0; k < p.Objects(); k++ {
				if s.Has(i, k) {
					continue // drop the replicator update fan-in
				}
				sp := p.Primary(k)
				minC := int64(-1)
				for j := 0; j < p.Sites(); j++ {
					if s.Has(j, k) {
						if c := p.Cost(i, j); minC < 0 || c < minC {
							minC = c
						}
					}
				}
				d += p.Reads(i, k)*p.Size(k)*minC + p.Writes(i, k)*p.Size(k)*p.Cost(i, sp)
			}
		}
		return d
	}
	defer func() { testCost = nil }()

	path := filepath.Join(t.TempDir(), "repro.json")
	var out bytes.Buffer
	err := run([]string{"-iters", "50", "-seed", "1", "-checks", "eq4-oracle", "-out", path, "-quiet"}, &out)
	if err == nil {
		t.Fatalf("broken evaluator passed:\n%s", out.String())
	}
	s := out.String()
	if !strings.Contains(s, "result:    FAIL") {
		t.Fatalf("missing FAIL verdict:\n%s", s)
	}
	if !strings.Contains(s, "replay:") {
		t.Fatalf("missing replay line:\n%s", s)
	}
	file, ferr := os.Open(path)
	if ferr != nil {
		t.Fatalf("reproducer not written: %v", ferr)
	}
	defer file.Close()
	p, perr := core.ReadProblem(file)
	if perr != nil {
		t.Fatalf("reproducer does not decode: %v", perr)
	}
	if p.Sites() > 4 || p.Objects() > 4 {
		t.Fatalf("reproducer is %d sites × %d objects, want ≤ 4 × 4", p.Sites(), p.Objects())
	}
}
