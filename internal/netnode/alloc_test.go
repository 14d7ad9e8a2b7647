//go:build !race

package netnode

import (
	"slices"
	"testing"

	"drp/internal/metrics"
)

// A read served from the node's own replica touches no link, and with
// metrics on and tracing off it records into the shared instruments
// only, so it must not allocate. The count holds on any host, unlike the
// timing it stands behind; the race detector's runtime allocates on its
// own, so it is taken without it.

func TestLocalReadAllocatesNothing(t *testing.T) {
	p := gen(t, 6, 24, 0.05, 0.5, 7)
	c, err := StartLocal(p)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reg := metrics.NewRegistry()
	RegisterMetricFamilies(reg)
	c.EnableMetrics(reg)
	const k = 0
	node := c.Node(p.Primary(k))
	// AllocsPerRun runs the read at GOMAXPROCS 1.
	got := testing.AllocsPerRun(1000, func() {
		if _, err := node.Read(k); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("a local read with metrics on allocates %v times", got)
	}
	if served := reg.Histogram("drp_net_request_seconds", "", nil, metrics.Labels{"op": "read"}).Count(); served < 1000 {
		t.Errorf("%d reads observed, want at least 1000: metrics are not on", served)
	}
}

// TestRemoteReadAllocsPinned pins the allocations of one remote read on a
// warm link, counted across both ends of the hop (both run in this
// process): the request and the reply are encoded into buffers the link
// and the connection keep, decoded without reflection, and the replica
// set is ranked into a buffer on the reader's stack. The hop runs a
// second goroutine, so the count is the median of five runs.
func TestRemoteReadAllocsPinned(t *testing.T) {
	p := gen(t, 6, 24, 0.05, 0.5, 7)
	c, err := StartLocal(p)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const k = 0
	node := c.Node((p.Primary(k) + 1) % p.Sites())
	if node.Holds(k) {
		t.Fatalf("site %d holds object %d: the read is not remote", node.site, k)
	}
	runs := make([]float64, 5)
	for i := range runs {
		runs[i] = testing.AllocsPerRun(200, func() {
			if _, err := node.Read(k); err != nil {
				t.Fatal(err)
			}
		})
	}
	slices.Sort(runs)
	if got := runs[len(runs)/2]; got != 0 {
		t.Errorf("a remote read allocates %v times (runs %v), pinned at 0", got, runs)
	}
}

// TestSettersAllocsFlatInSites: a cluster setter publishes one settings
// record, whatever the number of sites, so EnableMetrics and SetRetry
// allocate as often on a 12-site cluster as on a 4-site one. A setter that
// copied the settings per node, or built the metric handles per node,
// grows with the sites.
func TestSettersAllocsFlatInSites(t *testing.T) {
	setters := []struct {
		name string
		set  func(c *Cluster, reg *metrics.Registry)
	}{
		{"EnableMetrics", func(c *Cluster, reg *metrics.Registry) { c.EnableMetrics(reg) }},
		{"SetRetry", func(c *Cluster, _ *metrics.Registry) { c.SetRetry(3) }},
	}
	allocs := func(sites int, set func(*Cluster, *metrics.Registry)) float64 {
		c, err := StartLocal(gen(t, sites, 6, 0.05, 0.5, 7))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		reg := metrics.NewRegistry()
		runs := make([]float64, 5)
		for i := range runs {
			runs[i] = testing.AllocsPerRun(50, func() { set(c, reg) })
		}
		slices.Sort(runs)
		return runs[len(runs)/2]
	}
	for _, s := range setters {
		if small, large := allocs(4, s.set), allocs(12, s.set); large != small {
			t.Errorf("%s allocates %v times on 12 sites, %v on 4", s.name, large, small)
		}
	}
}
