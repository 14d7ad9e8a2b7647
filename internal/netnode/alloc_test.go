//go:build !race

package netnode

import (
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
