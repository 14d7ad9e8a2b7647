package sparse

import (
	"fmt"
	"testing"

	"drp/internal/solver"
)

// denseFormObjectCost runs the dense kernel's form on the CSR model: min
// over the replicators' whole distance rows into an M-wide scratch, one
// pass per row (core.(*Evaluator).objectTerms folds four rows per pass),
// then gather the object's reader and writer entries from it (replicators
// sit at distance zero, so they drop out of both sums). It lives in this
// test file only — the benchmark below is why it is not the package's
// kernel.
func denseFormObjectCost(mo *Model, k int, repl []int32, dmin []int64) int64 {
	if len(repl) == 0 {
		return mo.vPrime[k]
	}
	copy(dmin, mo.dist.Row(int(repl[0])))
	for _, j := range repl[1:] {
		for i, d := range mo.dist.Row(int(j))[:len(dmin)] {
			dmin[i] = min(dmin[i], d)
		}
	}
	toPrimary := mo.dist.Row(int(mo.primary[k]))
	var read, ship, fanIn int64
	rs, rc := mo.readEntries(k)
	for idx, j := range rs {
		read += rc[idx] * dmin[j]
	}
	ws, wc := mo.writeEntries(k)
	for idx, j := range ws {
		if dmin[j] != 0 {
			ship += wc[idx] * toPrimary[j]
		}
	}
	for _, j := range repl {
		fanIn += toPrimary[j]
	}
	return mo.size[k] * (read + ship + mo.totalWrites[k]*fanIn)
}

var benchSink int64

// BenchmarkNewModel times newModel — validation and derived caches — and
// the greedy's first round over every object, serially, on one
// pre-generated instance of 200 000 objects at each M, in ns per object.
//
//	go test -run '^$' -bench 'NewModel|FirstRound' -cpu 1 ./internal/sparse
func BenchmarkNewModel(b *testing.B) {
	const objects = 200000
	for _, sites := range []int{64, 100} {
		mo, err := GenerateWorkload(NewWorkloadSpec(sites, objects), 1)
		if err != nil {
			b.Fatal(err)
		}
		cfg := config{Sizes: mo.size, Capacities: mo.cap, Primaries: mo.primary, Reads: mo.reads, Writes: mo.writes, Dist: mo.dist}
		b.Run(fmt.Sprintf("M=%d", sites), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := newModel(cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/objects, "ns/object")
		})
		b.Run(fmt.Sprintf("FirstRound/M=%d", sites), func(b *testing.B) {
			dmin, gain, left := make([]int64, sites), make([]int64, sites), make([]uint64, mo.candWords)
			for i := 0; i < b.N; i++ {
				for k := 0; k < objects; k++ {
					mo.firstRound(k, dmin, gain, left)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/objects, "ns/object")
		})
	}
}

// BenchmarkEvalDenseFormOnCSR times one full eq. 4 evaluation of
// sparse.Solve's assignment with the package's CSR kernel and with the
// dense kernel's form run on the same CSR model, after asserting the two
// agree to the bit. It is the measurement behind keeping one kernel per
// representation: compare the csr and denseform ns/object at each M.
//
//	go test -run '^$' -bench EvalDenseFormOnCSR -cpu 1 ./internal/sparse
func BenchmarkEvalDenseFormOnCSR(b *testing.B) {
	const objects = 20000
	for _, sites := range []int{64, 100} {
		mo, err := GenerateWorkload(NewWorkloadSpec(sites, objects), 1)
		if err != nil {
			b.Fatal(err)
		}
		res, err := Solve(mo, SolveParams{Shards: 1}, solver.Run{})
		if err != nil {
			b.Fatal(err)
		}
		a := res.Assignment
		ev := NewEvaluator(mo)
		dmin := make([]int64, sites)
		denseForm := func() int64 {
			var total int64
			for k := 0; k < objects; k++ {
				total += denseFormObjectCost(mo, k, a.repl[k], dmin)
			}
			return total
		}
		if got, want := denseForm(), ev.Cost(a); got != want || want != res.Cost {
			b.Fatalf("M=%d: dense form %d, CSR kernel %d, solver %d", sites, got, want, res.Cost)
		}
		for _, kernel := range []struct {
			name string
			cost func() int64
		}{
			{"csr", func() int64 { return ev.Cost(a) }},
			{"denseform", denseForm},
		} {
			b.Run(fmt.Sprintf("%s/M=%d", kernel.name, sites), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					benchSink = kernel.cost()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/objects, "ns/object")
			})
		}
	}
}
