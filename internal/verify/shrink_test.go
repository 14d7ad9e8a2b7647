package verify

import (
	"testing"

	"drp/internal/core"
	"drp/internal/workload"
)

func genTestInstance(t *testing.T, m, n int, seed uint64) *core.Problem {
	t.Helper()
	p, err := workload.Generate(workload.NewSpec(m, n, 0.10, 0.25), seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestShrinkReachesDimensionFloor: with a predicate that only demands
// minimum dimensions, ddmin lands exactly on the floor.
func TestShrinkReachesDimensionFloor(t *testing.T) {
	p := genTestInstance(t, 10, 8, 42)
	pred := func(q *core.Problem) bool {
		return q.Sites() >= 3 && q.Objects() >= 2
	}
	out := shrink(p, pred)
	if !pred(out) {
		t.Fatal("shrunken instance no longer satisfies the predicate")
	}
	if out.Sites() != 3 || out.Objects() != 2 {
		t.Fatalf("shrunk to %d×%d, want the 3×2 floor", out.Sites(), out.Objects())
	}
}

// TestShrinkTracksPlantedObject: the reproducer keeps the one object the
// predicate cares about and sheds everything else shedable.
func TestShrinkTracksPlantedObject(t *testing.T) {
	p := genTestInstance(t, 8, 6, 7)
	// Plant the defect on the object with the largest primaries-only NTC —
	// a property that survives object and site removal of the others.
	target := 0
	for k := 1; k < p.Objects(); k++ {
		if p.VPrime(k) > p.VPrime(target) {
			target = k
		}
	}
	pred := func(q *core.Problem) bool {
		for k := 0; k < q.Objects(); k++ {
			// The per-object NTC changes when sites vanish, so key on the
			// object's identity (size + total traffic), which removal of
			// *other* elements cannot alter.
			if q.Size(k) == p.Size(target) && q.TotalReads(k) == p.TotalReads(target) && q.TotalWrites(k) == p.TotalWrites(target) {
				return true
			}
		}
		return false
	}
	if !pred(p) {
		t.Fatal("predicate false on the original instance")
	}
	out := shrink(p, pred)
	if !pred(out) {
		t.Fatal("shrunken instance lost the planted object")
	}
	if out.Objects() != 1 {
		t.Fatalf("kept %d objects, want 1", out.Objects())
	}
	if out.Sites() > p.Sites() {
		t.Fatalf("site count grew: %d > %d", out.Sites(), p.Sites())
	}
}

// TestShrinkIsDeterministic: identical inputs give identical reproducers.
func TestShrinkIsDeterministic(t *testing.T) {
	pred := func(q *core.Problem) bool { return q.Sites() >= 2 && q.Objects() >= 2 }
	a := shrink(genTestInstance(t, 9, 7, 11), pred)
	b := shrink(genTestInstance(t, 9, 7, 11), pred)
	if a.Sites() != b.Sites() || a.Objects() != b.Objects() {
		t.Fatalf("non-deterministic shrink: %d×%d vs %d×%d", a.Sites(), a.Objects(), b.Sites(), b.Objects())
	}
	if a.DPrime() != b.DPrime() {
		t.Fatalf("non-deterministic shrink: D′ %d vs %d", a.DPrime(), b.DPrime())
	}
}

// TestShrinkNeverReturnsUnobservedFailure: a predicate true only on the
// original leaves the instance untouched.
func TestShrinkNeverReturnsUnobservedFailure(t *testing.T) {
	p := genTestInstance(t, 6, 5, 3)
	pred := func(q *core.Problem) bool {
		return q.Sites() == p.Sites() && q.Objects() == p.Objects()
	}
	out := shrink(p, pred)
	if out.Sites() != p.Sites() || out.Objects() != p.Objects() {
		t.Fatalf("shrinker deviated to %d×%d despite an unshrinkable predicate", out.Sites(), out.Objects())
	}
}

// TestShrinkPreservesFeasibility: reproducers are real Problems — primaries
// in range and within capacity — because they come out of core.NewProblem.
func TestShrinkPreservesFeasibility(t *testing.T) {
	p := genTestInstance(t, 10, 8, 99)
	out := shrink(p, func(q *core.Problem) bool { return q.Objects() >= 1 })
	for k := 0; k < out.Objects(); k++ {
		if sp := out.Primary(k); sp < 0 || sp >= out.Sites() {
			t.Fatalf("object %d primaried at out-of-range site %d", k, sp)
		}
	}
	s := core.NewScheme(out) // primaries-only scheme; constructor re-validates capacity
	if err := s.Validate(); err != nil {
		t.Fatalf("primaries-only scheme invalid on reproducer: %v", err)
	}
}
