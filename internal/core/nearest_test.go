package core

import (
	"testing"

	"drp/internal/netsim"
)

// rankFixture builds a 5-site instance on a line metric (unit hops, so
// C(i,j) = |i-j|) with one object replicated at {0, 2, 3, 4}.
func rankFixture(t *testing.T) *Problem {
	t.Helper()
	dm := netsim.NewDistMatrix(5)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			dm.Set(i, j, int64(j-i))
		}
	}
	p, err := NewProblem(Config{
		Sizes:      []int64{1},
		Capacities: []int64{5, 5, 5, 5, 5},
		Primaries:  []int{0},
		Reads:      [][]int64{{1}, {1}, {1}, {1}, {1}},
		Writes:     [][]int64{{0}, {0}, {0}, {0}, {0}},
		Dist:       dm,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRankReplicasOrdersByCostThenIndex(t *testing.T) {
	p := rankFixture(t)
	replicas := []int{4, 0, 3, 2}
	// From site 1: C = {0:1, 2:1, 3:2, 4:3}; the 0/2 tie breaks on the
	// lower site index.
	got := RankReplicas(nil, p, 1, replicas, nil)
	want := []int{0, 2, 3, 4}
	if !equalInts(got, want) {
		t.Fatalf("rank from site 1 = %v, want %v", got, want)
	}
	// Input order must not matter.
	got = RankReplicas(nil, p, 1, []int{2, 3, 0, 4}, nil)
	if !equalInts(got, want) {
		t.Fatalf("rank is input-order sensitive: %v", got)
	}
}

func TestRankReplicasSkipsDepartedSites(t *testing.T) {
	p := rankFixture(t)
	replicas := []int{0, 2, 3, 4}
	// Sites 0 and 3 have left the view: the ranking must skip them
	// entirely, not push them to the back.
	view := map[int]bool{1: true, 2: true, 4: true}
	got := RankReplicas(nil, p, 1, replicas, func(j int) bool { return view[j] })
	want := []int{2, 4}
	if !equalInts(got, want) {
		t.Fatalf("view-masked rank = %v, want %v", got, want)
	}
	// The order over surviving sites is identical to ranking them alone:
	// departures never reshuffle survivors.
	alone := RankReplicas(nil, p, 1, []int{2, 4}, nil)
	if !equalInts(got, alone) {
		t.Fatalf("masking reshuffled survivors: %v vs %v", got, alone)
	}
	// Every site departed: the ranking is empty, not a panic.
	if got := RankReplicas(nil, p, 1, replicas, func(int) bool { return false }); len(got) != 0 {
		t.Fatalf("empty view ranked %v", got)
	}
}

func TestRankReplicasDropsOutOfRangeSites(t *testing.T) {
	p := rankFixture(t)
	got := RankReplicas(nil, p, 0, []int{3, -1, 99, 2}, nil)
	if !equalInts(got, []int{2, 3}) {
		t.Fatalf("rank with junk sites = %v, want [2 3]", got)
	}
}

func TestRankReplicasMatchesNearestTable(t *testing.T) {
	p := fixture(t)
	s := NewScheme(p)
	if err := s.Add(1, 0); err != nil {
		t.Fatal(err)
	}
	nt := NewNearestTable(s)
	for k := 0; k < p.Objects(); k++ {
		repl := s.Replicators(k)
		for i := 0; i < p.Sites(); i++ {
			ranked := RankReplicas(nil, p, i, repl, nil)
			if len(ranked) == 0 {
				t.Fatalf("object %d has no ranked replicas", k)
			}
			// The table's SN_k(i) must cost the same as the top-ranked
			// replica (the table may break ties differently, but never by
			// distance).
			if got, want := p.Cost(i, nt.Nearest(i, k)), p.Cost(i, ranked[0]); got != want {
				t.Fatalf("site %d object %d: table nearest costs %d, rank head costs %d", i, k, got, want)
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
