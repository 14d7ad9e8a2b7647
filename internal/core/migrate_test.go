package core

import "testing"

func TestDiffAndMigrationCost(t *testing.T) {
	p := fixture(t)
	old := NewScheme(p)
	next := NewScheme(p)
	if err := next.Add(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := next.Add(1, 1); err != nil {
		t.Fatal(err)
	}

	added, removed := old.Diff(next)
	if len(added) != 2 || len(removed) != 0 {
		t.Fatalf("diff: %d added, %d removed", len(added), len(removed))
	}
	// Migration: object 0 fetched from its primary site 0 (C=2, size 2),
	// object 1 from primary site 2 (C=1, size 3) → 4 + 3 = 7.
	if got := old.MigrationCost(next); got != 7 {
		t.Fatalf("migration cost %d, want 7", got)
	}

	// Reverse direction: removals only, free.
	back, gone := next.Diff(old)
	if len(back) != 0 || len(gone) != 2 {
		t.Fatalf("reverse diff: %d added, %d removed", len(back), len(gone))
	}
	if got := next.MigrationCost(old); got != 0 {
		t.Fatalf("removal-only migration cost %d, want 0", got)
	}

	// Identical schemes: empty diff.
	a, r := next.Diff(next.Clone())
	if len(a)+len(r) != 0 {
		t.Fatal("self-diff not empty")
	}
}

func TestDiffPanicsOnShapeMismatch(t *testing.T) {
	p := fixture(t)
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	other := NewScheme(p)
	// Build a different-shape problem.
	small, err := NewProblem(Config{
		Sizes:      []int64{1},
		Capacities: []int64{1, 1},
		Primaries:  []int{0},
		Reads:      [][]int64{{1}, {1}},
		Writes:     [][]int64{{0}, {0}},
		Dist:       twoSiteDist(),
	})
	if err != nil {
		t.Fatal(err)
	}
	NewScheme(small).Diff(other)
}
