package core_test

import (
	"math"
	"runtime"
	"testing"

	"drp/internal/bitset"
	"drp/internal/core"
	"drp/internal/xrand"
)

// The evaluator prices into scratch it owns, so pricing allocates nothing.
// These counts hold on any host, unlike the timings they stand behind.

// minMallocs returns the fewest heap allocations one call of fn makes, over
// runs calls, each started right after a collection and one warm-up call
// with GOMAXPROCS pinned to 1. The warm-up refills what the collection
// emptied (a sync.Pool drops its per-P cache, and rebuilding it allocates).
// A collection that starts mid-call can add allocations of the runtime's
// own to that call; such foreign allocations only ever add, so the minimum
// is fn's own count.
func minMallocs(runs int, fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fewest := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range runs {
		runtime.GC()
		fn()
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	return fewest
}

// TestEvaluatorAllocsNothing: V_k of one object, D of a scheme, a partial
// Reprice and a Scheme's V_k each allocate zero times per call.
func TestEvaluatorAllocsNothing(t *testing.T) {
	p, err := core.NewProblem(shapeConfig(50, 200, 3, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	s := randomScheme(p, xrand.New(4))
	x := s.Bits()
	ev := core.NewEvaluator(p)
	const k = 7
	sp := int32(p.Primary(k))
	degree8 := make([]int32, 8)
	for j := range degree8 {
		degree8[j] = (sp + int32(j)) % int32(p.Sites())
	}
	dirty := bitset.New(p.Objects())
	for k := 0; k < p.Objects(); k += 3 {
		dirty.Set(k)
	}
	v := make([]int64, p.Objects())
	var sink int64
	for _, row := range []struct {
		what string
		fn   func()
	}{
		{"ObjectCost(k, nil)", func() { sink += ev.ObjectCost(k, nil) }},
		{"ObjectCost(k, {SP_k})", func() { sink += ev.ObjectCost(k, []int32{sp}) }},
		{"ObjectCost at degree 8", func() { sink += ev.ObjectCost(k, degree8) }},
		{"Evaluator.Cost", func() { sink += ev.Cost(x) }},
		{"Reprice of a third of the objects", func() { sink += ev.Reprice(x, dirty, v) }},
		{"Scheme.ObjectCost", func() { sink += s.ObjectCost(k) }},
	} {
		if got := minMallocs(5, row.fn); got != 0 {
			t.Errorf("%s allocates %d times per call, want 0", row.what, got)
		}
	}
	_ = sink
}
