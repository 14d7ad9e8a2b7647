// Package netsim models the communication network underneath the data
// replication problem: weighted site-to-site graphs, topology generators and
// all-pairs shortest-path distance matrices.
//
// The paper assumes C(i,j) — the per-unit transfer cost between sites i and
// j — is the cumulative cost of the cheapest path and is known a priori.
// This package produces exactly that: a Topology (explicit links) is reduced
// to a DistMatrix by an all-pairs shortest-path pass, and the DistMatrix is
// what the replication algorithms consume.
package netsim

import (
	"errors"
	"fmt"
)

// Link is a bidirectional edge between two sites with a positive per-unit
// transfer cost.
type Link struct {
	From, To int
	Cost     int64
}

// Topology is an undirected weighted graph over Sites sites.
type Topology struct {
	Sites int
	Links []Link
}

// NewTopology returns an empty topology over n sites.
func NewTopology(n int) *Topology {
	if n <= 0 {
		panic("netsim: topology needs at least one site")
	}
	return &Topology{Sites: n}
}

// AddLink appends a bidirectional link. Costs must be positive; endpoints
// must be distinct valid site indices.
func (t *Topology) AddLink(from, to int, cost int64) error {
	switch {
	case from < 0 || from >= t.Sites || to < 0 || to >= t.Sites:
		return fmt.Errorf("netsim: link %d-%d out of range for %d sites", from, to, t.Sites)
	case from == to:
		return fmt.Errorf("netsim: self-link at site %d", from)
	case cost <= 0:
		return fmt.Errorf("netsim: non-positive cost %d on link %d-%d", cost, from, to)
	}
	t.Links = append(t.Links, Link{From: from, To: to, Cost: cost})
	return nil
}

// errDisconnected is returned when a topology does not connect every pair of
// sites, so no finite distance matrix exists.
var errDisconnected = errors.New("netsim: topology is not connected")
