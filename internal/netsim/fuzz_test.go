package netsim

// FuzzDistances cross-checks the two all-pairs shortest-path engines —
// Floyd–Warshall (dense topologies) and repeated Dijkstra (sparse ones) —
// on arbitrary fuzz-built topologies. Distances() picks one engine
// by density, so production only ever runs one of them per topology; this
// target is where they are forced to agree.

import (
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

func FuzzDistances(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 3, 1, 2, 4, 2, 3, 5, 3, 4, 1, 4, 0, 9})
	f.Add(uint8(2), []byte{0, 1, 1, 1, 2, 1, 2, 3, 1})
	f.Add(uint8(6), []byte{0, 1, 10})
	f.Add(uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, sites uint8, links []byte) {
		topo := buildTopology(sites, links)
		fw, errFW := topo.floydWarshall()
		dj, errDJ := topo.allDijkstra()
		if (errFW == nil) != (errDJ == nil) {
			t.Fatalf("engines disagree on connectivity: floydWarshall=%v allDijkstra=%v", errFW, errDJ)
		}
		if errFW != nil {
			return
		}
		n := topo.Sites
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if fw.At(i, j) != dj.At(i, j) {
					t.Fatalf("C(%d,%d): floydWarshall %d != allDijkstra %d", i, j, fw.At(i, j), dj.At(i, j))
				}
			}
		}
		if err := fw.Validate(); err != nil {
			t.Fatalf("agreed matrix fails validation: %v", err)
		}
	})
}
