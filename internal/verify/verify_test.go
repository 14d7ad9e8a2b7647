package verify

import (
	"strings"
	"testing"

	"drp/internal/core"
)

// TestSoakPassesOnHealthyCode is the package's own smoke soak: every
// registered check holds on a seeded instance stream.
func TestSoakPassesOnHealthyCode(t *testing.T) {
	report, err := Soak(Options{Seed: 1, Iterations: 8, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Passed() {
		t.Fatalf("soak failed: %v", report.Failure)
	}
	if report.Instances != 8 {
		t.Fatalf("verified %d instances, want 8", report.Instances)
	}
	for _, name := range checkNames() {
		if report.Runs[name] != 8 {
			t.Errorf("check %q ran %d times, want 8", name, report.Runs[name])
		}
	}
}

// TestSoakDeterministicAcrossParallelism: the same seed verifies the same
// instances and produces the same counters at any worker count.
func TestSoakDeterministicAcrossParallelism(t *testing.T) {
	opts := Options{Seed: 7, Iterations: 6, Checks: []string{"eq4-oracle", "delta-eval", "optimal-gap"}}
	opts.Parallelism = 1
	serial, err := Soak(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallelism = 4
	wide, err := Soak(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !serial.Passed() || !wide.Passed() {
		t.Fatalf("soaks failed: serial=%v wide=%v", serial.Failure, wide.Failure)
	}
	if serial.Instances != wide.Instances {
		t.Fatalf("instance counts diverge: %d vs %d", serial.Instances, wide.Instances)
	}
	for name, n := range serial.Runs {
		if wide.Runs[name] != n {
			t.Errorf("check %q: %d serial runs vs %d at par 4", name, n, wide.Runs[name])
		}
	}
}

// writeBlindCost is the deliberately broken evaluator of the acceptance
// scenario: it drops the replicator update fan-in term of eq. 4, so any
// scheme holding a non-primary replica of a written object is undercharged.
func writeBlindCost(s *core.Scheme) int64 {
	p := s.Problem()
	var d int64
	for i := 0; i < p.Sites(); i++ {
		for k := 0; k < p.Objects(); k++ {
			if s.Has(i, k) {
				continue // fan-in term silently dropped
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

// TestBrokenEvaluatorYieldsShrunkenReproducer: injecting the write-blind
// evaluator makes the soak fail, and the shrinker reduces the failing
// instance to at most 4 sites × 4 objects with the violation intact.
func TestBrokenEvaluatorYieldsShrunkenReproducer(t *testing.T) {
	report, err := Soak(Options{
		Seed:       1,
		Iterations: 50,
		Checks:     []string{"eq4-oracle"},
		Cost:       writeBlindCost,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Passed() {
		t.Fatal("soak accepted a write-blind evaluator")
	}
	f := report.Failure
	if f.Check != "eq4-oracle" {
		t.Fatalf("failure attributed to %q, want eq4-oracle", f.Check)
	}
	if f.Problem == nil {
		t.Fatal("no reproducer attached")
	}
	if f.Problem.Sites() > 4 || f.Problem.Objects() > 4 {
		t.Fatalf("reproducer is %d sites × %d objects, want ≤ 4 × 4 (from %d × %d)",
			f.Problem.Sites(), f.Problem.Objects(), f.FromSites, f.FromObjects)
	}
	if f.Problem.Sites() > f.FromSites || f.Problem.Objects() > f.FromObjects {
		t.Fatalf("shrinker grew the instance: %d×%d from %d×%d",
			f.Problem.Sites(), f.Problem.Objects(), f.FromSites, f.FromObjects)
	}
	if f.ShrunkErr == nil {
		t.Fatal("reproducer carries no violation")
	}
	if !strings.Contains(f.Error(), "eq4-oracle") {
		t.Errorf("failure message lacks the check name: %s", f.Error())
	}
}

// TestBrokenDeltaCaughtByDeltaEval: a broken cost hook also trips the
// delta-vs-full differential, since the delta evaluator stays correct.
func TestBrokenDeltaCaughtByDeltaEval(t *testing.T) {
	report, err := Soak(Options{
		Seed:       3,
		Iterations: 50,
		Checks:     []string{"delta-eval"},
		Cost: func(s *core.Scheme) int64 {
			return s.Cost() + int64(s.TotalReplicas()) // off-by-replicas drift
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Passed() {
		t.Fatal("delta-eval accepted a drifting evaluator")
	}
}

func TestSoakRejectsUnknownCheck(t *testing.T) {
	if _, err := Soak(Options{Checks: []string{"definitely-not-a-check"}}); err == nil {
		t.Fatal("unknown check name accepted")
	}
}

func TestSoakRejectsTinyCaps(t *testing.T) {
	if _, err := Soak(Options{MaxSites: 2, MaxObjects: 2, Iterations: 1}); err == nil {
		t.Fatal("degenerate instance caps accepted")
	}
}

// TestCheckRegistryStable pins the registry names the CLI and CI reference.
func TestCheckRegistryStable(t *testing.T) {
	names := checkNames()
	if len(names) != 16 {
		t.Fatalf("registry has %d checks, want 16", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate check name %q", n)
		}
		seen[n] = true
	}
	for _, want := range []string{"eq4-oracle", "perm-sites", "delta-eval", "pool-parity", "optimal-gap",
		"sparse-eval", "sparse-delta", "sparse-shards", "sparse-prune", "sparse-prune-perm"} {
		if !seen[want] {
			t.Errorf("registry lost check %q", want)
		}
	}
}
