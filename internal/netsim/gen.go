package netsim

import (
	"fmt"

	"drp/internal/xrand"
)

// CompleteUniform generates the paper's network model (Section 6.1): every
// pair of sites is connected by a bidirectional link whose cost is drawn
// uniformly from [minCost, maxCost] — the paper uses [1, 10], representing
// TCP/IP hop counts. Note that with a complete graph the *shortest path*
// between two sites may still route through intermediates, which is why
// Distances() must be applied before the costs are used as C(i,j).
func CompleteUniform(n int, minCost, maxCost int64, rng *xrand.Source) *Topology {
	t := NewTopology(n)
	t.Links = make([]Link, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			t.Links = append(t.Links, Link{
				From: i,
				To:   j,
				Cost: int64(rng.IntRange(int(minCost), int(maxCost))),
			})
		}
	}
	return t
}

// Tree generates a random recursive tree: site i > 0 attaches to a uniformly
// chosen earlier site. Trees are the setting in which Wolfson et al.'s
// adaptive algorithm is optimal, so they make a useful comparison topology.
func Tree(n int, minCost, maxCost int64, rng *xrand.Source) *Topology {
	t := NewTopology(n)
	for i := 1; i < n; i++ {
		parent := rng.Intn(i)
		mustAdd(t, parent, i, int64(rng.IntRange(int(minCost), int(maxCost))))
	}
	return t
}

// Random generates a connected G(n,p)-style topology: a random spanning tree
// guarantees connectivity, then each remaining pair is linked with
// probability p.
func Random(n int, p float64, minCost, maxCost int64, rng *xrand.Source) *Topology {
	t := NewTopology(n)
	perm := rng.Perm(n)
	present := make(map[[2]int]bool, n)
	key := func(i, j int) [2]int {
		if i > j {
			i, j = j, i
		}
		return [2]int{i, j}
	}
	for idx := 1; idx < n; idx++ {
		a, b := perm[idx], perm[rng.Intn(idx)]
		mustAdd(t, a, b, int64(rng.IntRange(int(minCost), int(maxCost))))
		present[key(a, b)] = true
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if present[key(i, j)] || !rng.Bool(p) {
				continue
			}
			mustAdd(t, i, j, int64(rng.IntRange(int(minCost), int(maxCost))))
		}
	}
	return t
}

func mustAdd(t *Topology, from, to int, cost int64) {
	if err := t.AddLink(from, to, cost); err != nil {
		// Generators only produce valid endpoints and positive costs, so a
		// failure here is a programming error, not an input error.
		panic(fmt.Sprintf("netsim: generator produced invalid link: %v", err))
	}
}
