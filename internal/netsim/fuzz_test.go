package netsim

// FuzzDistances cross-checks Distances (Floyd–Warshall) against
// bellmanFord, an independent single-source oracle, on arbitrary
// fuzz-built topologies: both must agree on connectivity and on every
// C(i,j).

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// buildTopology decodes a fuzz byte stream into a topology: three bytes per
// link (from, to, cost).
func buildTopology(sites uint8, links []byte) *Topology {
	n := int(sites)%10 + 2
	t := NewTopology(n)
	for j := 0; j+2 < len(links); j += 3 {
		from, to := int(links[j])%n, int(links[j+1])%n
		cost := int64(links[j+2])%50 + 1
		if from == to {
			continue
		}
		_ = t.AddLink(from, to, cost)
	}
	return t
}

// bellmanFord returns the cheapest-path cost from src to every site by
// relaxing every link in both directions until nothing improves, and
// whether every site is reachable.
func bellmanFord(t *Topology, src int) ([]int64, bool) {
	const unreached = math.MaxInt64 / 4
	dist := make([]int64, t.Sites)
	for i := range dist {
		dist[i] = unreached
	}
	dist[src] = 0
	for changed := true; changed; {
		changed = false
		for _, l := range t.Links {
			for _, e := range [][2]int{{l.From, l.To}, {l.To, l.From}} {
				if d := dist[e[0]] + l.Cost; d < dist[e[1]] {
					dist[e[1]], changed = d, true
				}
			}
		}
	}
	return dist, !slices.Contains(dist, unreached)
}

// matchesBellmanFord reports the first pair on which Distances and
// bellmanFord disagree, connectivity included.
func matchesBellmanFord(topo *Topology) error {
	dm, err := topo.Distances()
	for src := 0; src < topo.Sites; src++ {
		want, connected := bellmanFord(topo, src)
		if connected != (err == nil) {
			return fmt.Errorf("connectivity: Distances says %v, Bellman–Ford from %d reaches all: %v", err, src, connected)
		}
		if err != nil {
			return nil
		}
		for j, w := range want {
			if got := dm.At(src, j); got != w {
				return fmt.Errorf("C(%d,%d): Distances %d != Bellman–Ford %d", src, j, got, w)
			}
		}
	}
	return nil
}

func FuzzDistances(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 3, 1, 2, 4, 2, 3, 5, 3, 4, 1, 4, 0, 9})
	f.Add(uint8(2), []byte{0, 1, 1, 1, 2, 1, 2, 3, 1})
	f.Add(uint8(6), []byte{0, 1, 10})
	f.Add(uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, sites uint8, links []byte) {
		topo := buildTopology(sites, links)
		if err := matchesBellmanFord(topo); err != nil {
			t.Fatal(err)
		}
		if dm, err := topo.Distances(); err == nil {
			if err := dm.Validate(); err != nil {
				t.Fatalf("agreed matrix fails validation: %v", err)
			}
		}
	})
}
