package sparse

import (
	"testing"

	"drp/internal/core"
	"drp/internal/xrand"
)

// denseFromModel expands a sparse model into the equivalent dense
// core.Problem — the other direction of FromProblem, for differential
// tests.
func denseFromModel(t *testing.T, mo *Model) *core.Problem {
	t.Helper()
	m, n := mo.m, mo.Objects()
	cfg := core.Config{
		Sizes:      make([]int64, n),
		Capacities: make([]int64, m),
		Primaries:  make([]int, n),
		Reads:      make([][]int64, m),
		Writes:     make([][]int64, m),
		Dist:       mo.dist,
	}
	for i := 0; i < m; i++ {
		cfg.Capacities[i] = mo.cap[i]
		cfg.Reads[i] = make([]int64, n)
		cfg.Writes[i] = make([]int64, n)
	}
	for k := 0; k < n; k++ {
		cfg.Sizes[k] = mo.size[k]
		cfg.Primaries[k] = int(mo.Primary(k))
		rs, rc := mo.readEntries(k)
		for idx, site := range rs {
			cfg.Reads[site][k] = rc[idx]
		}
		ws, wc := mo.writeEntries(k)
		for idx, site := range ws {
			cfg.Writes[site][k] = wc[idx]
		}
	}
	p, err := core.NewProblem(cfg)
	if err != nil {
		t.Fatalf("dense problem from model: %v", err)
	}
	return p
}

// testModel generates a small sparse instance, failing the test on error.
func testModel(t *testing.T, sites, objects int, seed uint64) *Model {
	t.Helper()
	spec := NewWorkloadSpec(sites, objects)
	mo, err := GenerateWorkload(spec, seed)
	if err != nil {
		t.Fatalf("generate workload: %v", err)
	}
	return mo
}

// randomWalk applies steps random candidate-respecting mutations to both a
// sparse assignment and its dense mirror, calling check after each applied
// step. Additions draw from the candidate lists; removals from current
// replicas.
func randomWalk(t *testing.T, mo *Model, s *core.Scheme, a *Assignment, rng *xrand.Source, steps int, check func(step int)) {
	t.Helper()
	n := mo.Objects()
	for step := 0; step < steps; step++ {
		k := rng.Intn(n)
		if rng.Bool(0.6) {
			cand := mo.Candidates(k)
			site := int(cand[rng.Intn(len(cand))])
			errS := a.Add(site, k)
			errD := s.Add(site, k)
			if (errS == nil) != (errD == nil) {
				t.Fatalf("step %d: add(%d,%d) sparse err %v, dense err %v", step, site, k, errS, errD)
			}
		} else {
			repl := a.Replicators(k)
			site := int(repl[rng.Intn(len(repl))])
			errS := a.remove(site, k)
			errD := s.Remove(site, k)
			if (errS == nil) != (errD == nil) {
				t.Fatalf("step %d: remove(%d,%d) sparse err %v, dense err %v", step, site, k, errS, errD)
			}
		}
		check(step)
	}
}

// candidateRule returns the candidate rule written from its definition:
// object k may hold a replica at its primary, and at every other site x
// where it fits beside the primaries pinned to x and where a replica at x,
// added to the primaries-only scheme, strictly lowers V_k as ObjectCost
// prices it. The rule also reports how many sites it dropped for room
// alone, though a replica there would have paid.
func candidateRule(mo *Model) func(k int) (want []int32, unreachable int) {
	load := make([]int64, mo.m)
	for k := 0; k < mo.Objects(); k++ {
		load[mo.Primary(k)] += mo.size[k]
	}
	ev := NewEvaluator(mo)
	return func(k int) ([]int32, int) {
		sp := mo.Primary(k)
		alone := ev.ObjectCost(k, []int32{sp})
		var want []int32
		unreachable := 0
		for x := range int32(mo.m) {
			if x == sp {
				want = append(want, x)
				continue
			}
			if ev.ObjectCost(k, []int32{min(sp, x), max(sp, x)}) >= alone {
				continue
			}
			if mo.size[k] > mo.cap[x]-load[x] {
				unreachable++
				continue
			}
			want = append(want, x)
		}
		return want, unreachable
	}
}
