package gra

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"
)

// A GRA run allocates for its seeds and its first generation's children,
// and then breeds every child into the buffers of an individual the last
// selection dropped. These counts hold on any host, unlike the timings
// they stand behind.

// minMallocs returns the fewest heap allocations one call of fn makes, over
// runs calls after one warm-up call, each call started right after a
// collection with GOMAXPROCS pinned to 1. A collection that starts mid-call
// can add allocations of the runtime's own to that call; such foreign
// allocations only ever add, so the minimum is fn's own count.
func minMallocs(runs int, fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	fewest := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range runs {
		runtime.GC()
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	return fewest
}

// raceBuild reports whether the test binary was built with -race, whose
// runtime makes allocations of its own during a run.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// TestRunAllocsPinnedOnAdaptiveTestCase pins the allocations of a default
// GRA run (Np 50, Ng 80) on the paper's adaptive test case at
// GOMAXPROCS 1: 60 488 before children were bred into recycled buffers.
// Most of what is left is the 50 SRA runs that seed the population.
func TestRunAllocsPinnedOnAdaptiveTestCase(t *testing.T) {
	if testing.Short() || raceBuild() {
		t.Skip("full-size GRA runs, counted without the race detector")
	}
	p := gen(t, 50, 200, 0.05, 0.15, 1)
	const recorded = 14375
	got := minMallocs(2, func() {
		if _, err := Run(p, DefaultParams()); err != nil {
			t.Fatal(err)
		}
	})
	if got != recorded {
		t.Fatalf("a default GRA run allocates %d times, recorded %d", got, recorded)
	}
}
