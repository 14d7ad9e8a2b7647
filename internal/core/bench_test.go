package core_test

// BenchmarkDeltaVsFullEval quantifies the delta evaluator's payoff: a
// single-replica move costed incrementally (one object's terms) versus a
// from-scratch eq. 4 evaluation of the whole scheme. The ratio is the
// speedup the hill climber and the AGRA micro-GAs bank on, and it should
// grow with the object count — the delta path's work is O(M) per move while
// the full path is O(M·N).

import (
	"fmt"
	"testing"

	"drp/internal/core"
	"drp/internal/workload"
	"drp/internal/xrand"
)

// benchMoves pre-computes distinct replica positions addable from the
// pristine primaries-only scheme. The measured loops toggle them in order,
// so every pass through the list alternates between adding and removing the
// whole set — always valid, regardless of how many passes b.N takes.
func benchMoves(b *testing.B, p *core.Problem, max int) [][2]int {
	b.Helper()
	rng := xrand.New(99)
	s := core.NewScheme(p)
	moves := make([][2]int, 0, max)
	failures := 0
	for len(moves) < max && failures < 50 {
		i, k := rng.Intn(p.Sites()), rng.Intn(p.Objects())
		if err := s.Add(i, k); err != nil {
			failures++
			continue
		}
		failures = 0
		moves = append(moves, [2]int{i, k})
	}
	if len(moves) == 0 {
		b.Fatal("no addable positions on the benchmark instance")
	}
	return moves
}

func benchProblem(b *testing.B, m, n int) *core.Problem {
	b.Helper()
	p, err := workload.Generate(workload.NewSpec(m, n, 0.05, 0.25), 17)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func BenchmarkDeltaVsFullEval(b *testing.B) {
	for _, size := range []struct{ m, n int }{{10, 20}, {20, 50}, {40, 100}} {
		p := benchProblem(b, size.m, size.n)
		moves := benchMoves(b, p, 256)

		b.Run(fmt.Sprintf("delta/M%d_N%d", size.m, size.n), func(b *testing.B) {
			s := core.NewScheme(p)
			d := core.NewDeltaEvaluator(s)
			var sink int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mv := moves[i%len(moves)]
				if s.Has(mv[0], mv[1]) {
					if err := d.Remove(mv[0], mv[1]); err != nil {
						b.Fatal(err)
					}
				} else {
					if err := d.Add(mv[0], mv[1]); err != nil {
						b.Fatal(err)
					}
				}
				sink += d.Cost()
			}
			_ = sink
		})

		b.Run(fmt.Sprintf("full/M%d_N%d", size.m, size.n), func(b *testing.B) {
			s := core.NewScheme(p)
			ev := core.NewEvaluator(p)
			var sink int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mv := moves[i%len(moves)]
				var err error
				if s.Has(mv[0], mv[1]) {
					err = s.Remove(mv[0], mv[1])
				} else {
					err = s.Add(mv[0], mv[1])
				}
				if err != nil {
					b.Fatal(err)
				}
				sink += ev.Cost(s.Bits())
			}
			_ = sink
		})
	}
}

// BenchmarkObjectCost measures one V_k — the unit the delta evaluator and
// AGRA's micro-GAs pay per move — on the 50×200 shape at these replica
// degrees: primary only (V′_k), a part group (2), either side of the ends of
// the kernel's first two groups of four rows (4, 5, 8, 9; 8 is also GRA's
// typical degree), and M/2, where the micro-GA's random half of the
// population sits.
func BenchmarkObjectCost(b *testing.B) {
	p := benchProblem(b, 50, 200)
	ev := core.NewEvaluator(p)
	for _, degree := range []int{1, 2, 4, 5, 8, 9, p.Sites() / 2} {
		// One replica list per object: the primary plus the next sites.
		lists := make([][]int32, p.Objects())
		for k := range lists {
			for j := 0; j < degree; j++ {
				lists[k] = append(lists[k], int32((p.Primary(k)+j)%p.Sites()))
			}
		}
		b.Run(fmt.Sprintf("degree%d", degree), func(b *testing.B) {
			var sink int64
			for i := 0; i < b.N; i++ {
				k := i % len(lists)
				sink += ev.ObjectCost(k, lists[k])
			}
			_ = sink
		})
	}
}

// BenchmarkNewProblem measures instance construction on the 50×200 shape:
// validation, the magnitude gate and every derived table, the evaluator's
// object-major read copy included.
func BenchmarkNewProblem(b *testing.B) {
	p := benchProblem(b, 50, 200)
	reads, writes := p.ReadMatrix(), p.WriteMatrix()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.WithPatterns(reads, writes); err != nil {
			b.Fatal(err)
		}
	}
}
