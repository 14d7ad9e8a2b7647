package netsim

import (
	"errors"
	"testing"
	"testing/quick"

	"drp/internal/xrand"
)

func line(costs ...int64) *Topology {
	t := NewTopology(len(costs) + 1)
	for i, c := range costs {
		if err := t.AddLink(i, i+1, c); err != nil {
			panic(err)
		}
	}
	return t
}

func TestAddLinkValidation(t *testing.T) {
	topo := NewTopology(3)
	tests := []struct {
		name     string
		from, to int
		cost     int64
		wantErr  bool
	}{
		{"valid", 0, 1, 5, false},
		{"self link", 1, 1, 5, true},
		{"negative cost", 0, 2, -1, true},
		{"zero cost", 0, 2, 0, true},
		{"from out of range", -1, 2, 1, true},
		{"to out of range", 0, 3, 1, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := topo.AddLink(tt.from, tt.to, tt.cost)
			if (err != nil) != tt.wantErr {
				t.Fatalf("AddLink(%d,%d,%d) error = %v, wantErr %v", tt.from, tt.to, tt.cost, err, tt.wantErr)
			}
		})
	}
}

func TestLineDistances(t *testing.T) {
	topo := line(2, 3, 4) // 0-1-2-3 with costs 2,3,4
	dm, err := topo.Distances()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int64{
		{0, 2, 5, 9},
		{2, 0, 3, 7},
		{5, 3, 0, 4},
		{9, 7, 4, 0},
	}
	for i := range want {
		for j := range want[i] {
			if got := dm.At(i, j); got != want[i][j] {
				t.Errorf("At(%d,%d) = %d, want %d", i, j, got, want[i][j])
			}
		}
	}
}

func TestShortestPathRoutesAroundExpensiveLink(t *testing.T) {
	topo := NewTopology(3)
	for _, l := range []Link{{0, 1, 10}, {1, 2, 1}, {0, 2, 1}} {
		if err := topo.AddLink(l.From, l.To, l.Cost); err != nil {
			t.Fatal(err)
		}
	}
	dm, err := topo.Distances()
	if err != nil {
		t.Fatal(err)
	}
	// Direct 0-1 costs 10, but 0-2-1 costs 2.
	if got := dm.At(0, 1); got != 2 {
		t.Fatalf("At(0,1) = %d, want 2", got)
	}
}

func TestDisconnected(t *testing.T) {
	topo := NewTopology(4)
	if err := topo.AddLink(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddLink(2, 3, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := topo.Distances(); !errors.Is(err, errDisconnected) {
		t.Fatalf("Distances error = %v, want ErrDisconnected", err)
	}
}

func TestSingleSite(t *testing.T) {
	dm := NewDistMatrix(1)
	if dm.At(0, 0) != 0 {
		t.Fatal("single-site distance not zero")
	}
}

func TestFloydWarshallMatchesBellmanFord(t *testing.T) {
	rng := xrand.New(5)
	for trial := 0; trial < 10; trial++ {
		topo := Random(12, 0.3, 1, 10, rng)
		if _, err := topo.Distances(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := matchesBellmanFord(topo); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestDistancePropertiesOnRandomTopologies(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		topo := CompleteUniform(8, 1, 10, rng)
		dm, err := topo.Distances()
		if err != nil {
			return false
		}
		if dm.Validate() != nil {
			return false
		}
		// Triangle inequality must hold for shortest-path metrics.
		for i := 0; i < 8; i++ {
			for j := 0; j < 8; j++ {
				for k := 0; k < 8; k++ {
					if dm.At(i, j) > dm.At(i, k)+dm.At(k, j) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerators(t *testing.T) {
	rng := xrand.New(1)
	tests := []struct {
		name      string
		topo      *Topology
		wantSites int
		wantLinks int
	}{
		{"complete", CompleteUniform(6, 1, 10, rng), 6, 15},
		{"tree", Tree(9, 1, 10, rng), 9, 8},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.topo.Sites != tt.wantSites {
				t.Errorf("sites = %d, want %d", tt.topo.Sites, tt.wantSites)
			}
			if len(tt.topo.Links) != tt.wantLinks {
				t.Errorf("links = %d, want %d", len(tt.topo.Links), tt.wantLinks)
			}
			for _, l := range tt.topo.Links {
				if l.Cost < 1 || l.Cost > 10 {
					t.Errorf("link cost %d outside [1,10]", l.Cost)
				}
			}
			if _, err := tt.topo.Distances(); err != nil {
				t.Errorf("generator produced a topology Distances refuses: %v", err)
			}
		})
	}
}

func TestRandomTopologyConnected(t *testing.T) {
	rng := xrand.New(2)
	for trial := 0; trial < 20; trial++ {
		topo := Random(15, 0.05, 1, 10, rng)
		if _, err := topo.Distances(); errors.Is(err, errDisconnected) {
			t.Fatalf("trial %d: Random produced disconnected topology", trial)
		}
	}
}

func TestRowSumAndMeanRowSum(t *testing.T) {
	dm := NewDistMatrix(3)
	dm.Set(0, 1, 2)
	dm.Set(0, 2, 4)
	dm.Set(1, 2, 6)
	if got := dm.RowSum(0); got != 6 {
		t.Fatalf("RowSum(0) = %d, want 6", got)
	}
	// Total = 2*(2+4+6) = 24; mean row sum = 8.
	if got := dm.MeanRowSum(); got != 8 {
		t.Fatalf("MeanRowSum = %v, want 8", got)
	}
}

func TestValidate(t *testing.T) {
	dm := NewDistMatrix(2)
	if err := dm.Validate(); err == nil {
		t.Fatal("zero off-diagonal passed validation")
	}
	dm.Set(0, 1, 3)
	if err := dm.Validate(); err != nil {
		t.Fatalf("valid matrix rejected: %v", err)
	}
}
