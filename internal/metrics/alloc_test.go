//go:build !race

package metrics

import "testing"

// The instruments sit on every request's path, so recording into them
// must not allocate. The counts hold on any host, unlike the timings
// they stand behind; the race detector's runtime allocates on its own, so
// they are taken without it.

func TestRecordingAllocatesNothing(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("drp_test_total", "", Labels{"op": "read"})
	h := reg.Histogram("drp_test_seconds", "", LatencyBuckets(), Labels{"op": "read"})
	v := 1e-3
	for name, fn := range map[string]func(){
		"Counter.Inc":       c.Inc,
		"Histogram.Observe": func() { h.Observe(v); v *= 1.01 },
	} {
		// AllocsPerRun runs fn at GOMAXPROCS 1.
		if got := testing.AllocsPerRun(1000, fn); got != 0 {
			t.Errorf("%s allocates %v times per call", name, got)
		}
	}
}
