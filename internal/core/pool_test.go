package core

import (
	"testing"

	"drp/internal/bitset"
	"drp/internal/netsim"
	"drp/internal/parallel"
	"drp/internal/xrand"
)

// poolProblem builds a pseudo-random m×n instance plus a batch of raw
// chromosomes for it (the evaluator accepts any placement matrix, so the
// batch needs no constraint repair).
func poolProblem(t testing.TB, m, n, batch int) (*Problem, []*bitset.Set) {
	t.Helper()
	rng := xrand.New(42)
	dm := netsim.NewDistMatrix(m)
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			dm.Set(i, j, int64(rng.IntRange(1, 20)))
		}
	}
	cfg := Config{
		Sizes:      make([]int64, n),
		Capacities: make([]int64, m),
		Primaries:  make([]int, n),
		Reads:      make([][]int64, m),
		Writes:     make([][]int64, m),
		Dist:       dm,
	}
	for k := 0; k < n; k++ {
		cfg.Sizes[k] = int64(rng.IntRange(1, 5))
		cfg.Primaries[k] = rng.Intn(m)
	}
	for i := 0; i < m; i++ {
		cfg.Capacities[i] = 1 << 20
		cfg.Reads[i] = make([]int64, n)
		cfg.Writes[i] = make([]int64, n)
		for k := 0; k < n; k++ {
			cfg.Reads[i][k] = int64(rng.IntRange(0, 30))
			cfg.Writes[i][k] = int64(rng.IntRange(0, 5))
		}
	}
	p, err := NewProblem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]*bitset.Set, batch)
	for c := range xs {
		bits := bitset.New(m * n)
		for k := 0; k < n; k++ {
			bits.Set(p.Primary(k)*n + k)
		}
		for i := 0; i < bits.Len(); i++ {
			if rng.Bool(0.2) {
				bits.Set(i)
			}
		}
		xs[c] = bits
	}
	return p, xs
}

func TestEvalPoolCostsMatchSerial(t *testing.T) {
	p, xs := poolProblem(t, 8, 10, 37)
	serial := NewEvaluator(p)
	want := make([]int64, len(xs))
	for i, x := range xs {
		want[i] = serial.Cost(x)
	}
	for _, par := range []int{1, 2, 8, 64} {
		got := NewEvalPool(p, par).Costs(xs)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("par=%d: cost[%d] = %d, want %d", par, i, got[i], want[i])
			}
		}
	}
}

func TestEvalPoolWorkerResolution(t *testing.T) {
	p, _ := poolProblem(t, 3, 3, 1)
	for _, par := range []int{3, 1, 0} {
		want := parallel.Workers(par)
		if par > 0 && want != par || want < 1 {
			t.Fatalf("parallelism %d resolved to %d workers", par, want)
		}
		if got := len(NewEvalPool(p, par).evs); got != want {
			t.Fatalf("parallelism %d: pool holds %d evaluators, want one per worker (%d)", par, got, want)
		}
	}
}

// TestEvalPoolHammer pushes many batches through a wide pool; it exists to
// be run under -race, where any sharing of evaluator scratch state between
// workers would be reported.
func TestEvalPoolHammer(t *testing.T) {
	p, xs := poolProblem(t, 8, 10, 64)
	pool := NewEvalPool(p, 8)
	want := pool.Costs(xs)
	for round := 0; round < 20; round++ {
		got := pool.Costs(xs)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: cost[%d] drifted", round, i)
			}
		}
	}
}
