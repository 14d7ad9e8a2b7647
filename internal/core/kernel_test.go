package core_test

// Kernel tests: the evaluator prices objects through a re-associated form of
// eq. 4 (see cost.go) over an object-major table and an M-long scratch.
// These check it against the literal oracle of oracle_test.go on the shapes
// such a kernel gets wrong — single-site and single-object instances, table
// dimensions either side of a 64-lane block, saturated and empty schemes,
// objects nobody reads or writes, and magnitudes at the int64 gate — and
// pin the replica-list contract of the exported ObjectCost.

import (
	"fmt"
	"math"
	"testing"

	"drp/internal/bitset"
	"drp/internal/core"
	"drp/internal/netsim"
	"drp/internal/xrand"
)

// shapeConfig draws an M×N instance by hand (workload.Generate cannot make
// one-site networks). Capacities hold every object, so any placement is
// feasible; cold and readOnly name objects that get no traffic at all and
// no writes.
func shapeConfig(m, n int, seed uint64, cold, readOnly map[int]bool) core.Config {
	rng := xrand.New(seed)
	dm := netsim.NewDistMatrix(m)
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			dm.Set(i, j, 1+int64(rng.Intn(20)))
		}
	}
	cfg := core.Config{
		Sizes:      make([]int64, n),
		Capacities: make([]int64, m),
		Primaries:  make([]int, n),
		Reads:      make([][]int64, m),
		Writes:     make([][]int64, m),
		Dist:       dm,
	}
	var total int64
	for k := range cfg.Sizes {
		cfg.Sizes[k] = 1 + int64(rng.Intn(9))
		cfg.Primaries[k] = rng.Intn(m)
		total += cfg.Sizes[k]
	}
	for i := 0; i < m; i++ {
		cfg.Capacities[i] = total
		cfg.Reads[i] = make([]int64, n)
		cfg.Writes[i] = make([]int64, n)
		for k := 0; k < n; k++ {
			if cold[k] {
				continue
			}
			cfg.Reads[i][k] = int64(rng.Intn(50))
			if !readOnly[k] && rng.Intn(3) == 0 {
				cfg.Writes[i][k] = int64(rng.Intn(12))
			}
		}
	}
	return cfg
}

// checkAgainstOracle prices s every way the package offers and compares
// each with the literal eq. 4.
func checkAgainstOracle(t *testing.T, what string, p *core.Problem, s *core.Scheme) {
	t.Helper()
	want := naiveTerms(p, s)
	if got := s.CostTerms(); got != want {
		t.Fatalf("%s: CostTerms = %+v, literal eq. 4 = %+v", what, got, want)
	}
	if got := s.Cost(); got != want.Total() {
		t.Fatalf("%s: Cost = %d, literal eq. 4 = %d", what, got, want.Total())
	}
	if got := core.NewEvaluator(p).Cost(s.Bits()); got != want.Total() {
		t.Fatalf("%s: Evaluator.Cost = %d, literal eq. 4 = %d", what, got, want.Total())
	}
	var sum int64
	for k := 0; k < p.Objects(); k++ {
		sum += s.ObjectCost(k)
	}
	if sum != want.Total() {
		t.Fatalf("%s: Σ ObjectCost = %d, literal eq. 4 = %d", what, sum, want.Total())
	}
	if got := core.NewDeltaEvaluator(s).Cost(); got != want.Total() {
		t.Fatalf("%s: DeltaEvaluator.Cost = %d, literal eq. 4 = %d", what, got, want.Total())
	}
	if got := priceSum(t, p, s, nil); got != want {
		t.Fatalf("%s: Σ NearestTable.Price = %+v, literal eq. 4 = %+v", what, got, want)
	}
}

// checkSchemes runs checkAgainstOracle on the primaries-only scheme, the
// saturated one (every site holds every object) and a few random ones.
func checkSchemes(t *testing.T, what string, p *core.Problem, seed uint64) {
	t.Helper()
	checkAgainstOracle(t, what+", primaries only", p, core.NewScheme(p))
	if want := naiveCost(p, core.NewScheme(p)); p.DPrime() != want {
		t.Fatalf("%s: D′ = %d, literal eq. 4 of the primaries-only scheme = %d", what, p.DPrime(), want)
	}
	full := core.NewScheme(p)
	for i := 0; i < p.Sites(); i++ {
		for k := 0; k < p.Objects(); k++ {
			if i != p.Primary(k) {
				if err := full.Add(i, k); err != nil {
					t.Fatalf("%s: saturating (%d,%d): %v", what, i, k, err)
				}
			}
		}
	}
	checkAgainstOracle(t, what+", every site replicating", p, full)
	rng := xrand.New(seed)
	for trial := 0; trial < 4; trial++ {
		s := core.NewScheme(p)
		for tries := rng.Intn(p.Sites()*p.Objects() + 1); tries > 0; tries-- {
			_ = s.Add(rng.Intn(p.Sites()), rng.Intn(p.Objects())) // duplicates just skip
		}
		checkAgainstOracle(t, fmt.Sprintf("%s, random scheme %d", what, trial), p, s)
	}
}

func TestKernelMatchesOracleOnEdgeShapes(t *testing.T) {
	shapes := []struct{ m, n int }{
		{1, 1}, {1, 7}, {6, 1}, {2, 2},
		{65, 3}, {7, 63}, {7, 64}, {7, 65}, {65, 65},
	}
	for x, sh := range shapes {
		what := fmt.Sprintf("M=%d N=%d", sh.m, sh.n)
		p, err := core.NewProblem(shapeConfig(sh.m, sh.n, uint64(100+x), nil, nil))
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		checkSchemes(t, what, p, uint64(200+x))
	}
}

func TestKernelMatchesOracleOnSilentObjects(t *testing.T) {
	// Objects 0 and 3 see no traffic at all, 1 and 4 are never written.
	cold := map[int]bool{0: true, 3: true}
	readOnly := map[int]bool{1: true, 4: true}
	p, err := core.NewProblem(shapeConfig(9, 6, 31, cold, readOnly))
	if err != nil {
		t.Fatal(err)
	}
	checkSchemes(t, "silent objects", p, 32)
	for k := range cold {
		if p.VPrime(k) != 0 {
			t.Fatalf("V′ of zero-traffic object %d = %d", k, p.VPrime(k))
		}
	}
}

// TestKernelAtTheMagnitudeGate builds the heaviest instance NewProblem
// admits — one more read and NTCBoundOverflow rejects it — and checks that
// the kernel's re-associated partial sums (all reads against the farthest
// replica; every site's ship cost plus every replicator's correction)
// still land on the literal eq. 4.
func TestKernelAtTheMagnitudeGate(t *testing.T) {
	const m = 5
	build := func(reads int64) (*core.Problem, error) {
		dm := netsim.NewDistMatrix(m)
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				dm.Set(i, j, int64(1+(i+2*j)%7))
			}
		}
		cfg := core.Config{
			Sizes:      []int64{3, 1},
			Capacities: make([]int64, m),
			Primaries:  []int{2, 0},
			Reads:      make([][]int64, m),
			Writes:     make([][]int64, m),
			Dist:       dm,
		}
		for i := 0; i < m; i++ {
			cfg.Capacities[i] = 4
			cfg.Reads[i] = []int64{1 << 40, 5}
			cfg.Writes[i] = []int64{1 << 50, 2}
		}
		cfg.Reads[4][0] = reads
		return core.NewProblem(cfg)
	}
	// Largest accepted read count at site 4, by bisection.
	lo, hi := int64(0), int64(math.MaxInt64/2)
	if _, err := build(lo); err != nil {
		t.Fatalf("base instance rejected: %v", err)
	}
	for lo < hi {
		mid := lo + (hi-lo+1)/2
		if _, err := build(mid); err == nil {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	if lo < 1<<55 {
		t.Fatalf("gate closed at %d reads: the instance is not near the int64 range", lo)
	}
	if _, err := build(lo + 1); err == nil {
		t.Fatalf("%d reads accepted, but bisection stopped at %d", lo+1, lo)
	}
	p, err := build(lo)
	if err != nil {
		t.Fatal(err)
	}
	checkSchemes(t, "at the magnitude gate", p, 77)
	if p.DPrime() <= 0 {
		t.Fatalf("D′ = %d wrapped", p.DPrime())
	}
}

// TestObjectCostEveryDegree prices an object at every replica degree 0…M —
// so either side of every group of rows the kernel folds at once — against
// the literal eq. 4, at M within one 64-site word (5, 50) and just past one
// and two (65, 130): a random set of distinct sites, the same set shuffled,
// the set plus as many again of its sites drawn at random, in random order,
// and one Reprice of a chromosome whose object k has degree k. The empty
// list prices as {SP_k}.
func TestObjectCostEveryDegree(t *testing.T) {
	int32s := func(sites []int) []int32 {
		out := make([]int32, len(sites))
		for i, j := range sites {
			out[i] = int32(j)
		}
		return out
	}
	for _, m := range []int{5, 50, 65, 130} {
		n := m + 1
		p, err := core.NewProblem(shapeConfig(m, n, uint64(m), nil, nil))
		if err != nil {
			t.Fatalf("M=%d: %v", m, err)
		}
		rng := xrand.New(uint64(1000 + m))
		ev := core.NewEvaluator(p)
		x := bitset.New(m * n)
		want := make([]int64, n)
		for degree := 0; degree <= m; degree++ {
			k := degree
			sites := rng.Perm(m)[:degree]
			holds := make([]bool, m)
			for _, j := range sites {
				holds[j] = true
				x.Set(j*n + k)
			}
			if degree == 0 {
				holds[p.Primary(k)] = true
			}
			want[k] = naiveObjectTerms(p, k, func(j int) bool { return holds[j] }).Total()

			shuffled := append([]int(nil), sites...)
			rng.Shuffle(shuffled)
			repeated := append([]int(nil), sites...)
			for range degree {
				repeated = append(repeated, sites[rng.Intn(degree)])
			}
			rng.Shuffle(repeated)
			for _, list := range []struct {
				what  string
				sites []int
			}{{"distinct", sites}, {"shuffled", shuffled}, {"with repeats", repeated}} {
				if got := ev.ObjectCost(k, int32s(list.sites)); got != want[k] {
					t.Fatalf("M=%d degree %d, %s list %v: ObjectCost = %d, literal eq. 4 = %d", m, degree, list.what, list.sites, got, want[k])
				}
			}
		}
		v := make([]int64, n)
		var total int64
		for k := range want {
			total += want[k]
		}
		if d := ev.Reprice(x, nil, v); d != total {
			t.Fatalf("M=%d: Reprice of every degree = %d, literal eq. 4 = %d", m, d, total)
		}
		for k := range v {
			if v[k] != want[k] {
				t.Fatalf("M=%d: Reprice v[%d] (degree %d) = %d, literal eq. 4 = %d", m, k, k, v[k], want[k])
			}
		}
	}
}

// TestObjectCostReplicaListIsASet pins the list contract of the exported
// ObjectCost: order does not matter, a repeated site counts once, and the
// empty list prices as the primary alone — which is V′_k, for every object.
func TestObjectCostReplicaListIsASet(t *testing.T) {
	p, err := core.NewProblem(shapeConfig(8, 10, 5, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	ev := core.NewEvaluator(p)
	primaries := core.NewScheme(p)
	for k := 0; k < p.Objects(); k++ {
		sp := int32(p.Primary(k))
		vPrime := p.VPrime(k)
		if got := ev.ObjectCost(k, nil); got != vPrime {
			t.Fatalf("object %d: empty list prices %d, V′ = %d", k, got, vPrime)
		}
		if got := ev.ObjectCost(k, []int32{sp}); got != vPrime {
			t.Fatalf("object %d: {SP} prices %d, V′ = %d", k, got, vPrime)
		}
		if got := primaries.ObjectCost(k); got != vPrime {
			t.Fatalf("object %d: primaries-only scheme prices %d, V′ = %d", k, got, vPrime)
		}
		a, b := (sp+1)%8, (sp+3)%8
		want := ev.ObjectCost(k, []int32{sp, a, b})
		for _, list := range [][]int32{
			{b, sp, a},
			{sp, a, b, a},
			{sp, sp, a, b, b, sp},
			{a, a, b, sp},
		} {
			if got := ev.ObjectCost(k, list); got != want {
				t.Fatalf("object %d: list %v prices %d, the set {%d,%d,%d} prices %d", k, list, got, sp, a, b, want)
			}
		}
	}
}

// TestRepriceWordBoundariesEveryDegree prices chromosomes whose object k
// has every degree 1…M in turn, at N either side of one, two and three
// 64-bit words and M from one site to just past one word, under dirty
// masks that are empty, one object, every object (and nil) and random.
// Each Reprice starts from a vector whose clean entries hold the new
// chromosome's V_k and whose dirty ones hold garbage: the result must be
// Scheme.ObjectCost for every entry and a full Cost for the sum. A second
// pass fills the clean entries with a sentinel, which Reprice must leave
// alone. One evaluator serves every call, so a partial gather always
// follows one of another chromosome.
func TestRepriceWordBoundariesEveryDegree(t *testing.T) {
	const garbage, sentinel = -1 << 40, -7
	for _, n := range []int{1, 63, 64, 65, 127, 128, 129, 200} {
		for _, m := range []int{1, 2, 3, 50, 64, 65} {
			p, err := core.NewProblem(shapeConfig(m, n, uint64(m*1000+n), nil, nil))
			if err != nil {
				t.Fatalf("M=%d N=%d: %v", m, n, err)
			}
			rng := xrand.New(uint64(7*m + n))
			ev := core.NewEvaluator(p)
			v := make([]int64, n)
			for shift := 0; shift < 3; shift++ {
				// Object k is held by its primary and 1+(k+shift) mod M
				// sites in all.
				x := bitset.New(m * n)
				for k := 0; k < n; k++ {
					sp := p.Primary(k)
					x.Set(sp*n + k)
					extra := (k + shift) % m
					for _, i := range rng.Perm(m) {
						if extra > 0 && i != sp {
							x.Set(i*n + k)
							extra--
						}
					}
				}
				s, err := core.SchemeFromBits(p, x)
				if err != nil {
					t.Fatalf("M=%d N=%d: %v", m, n, err)
				}
				want := make([]int64, n)
				var total int64
				for k := range want {
					want[k] = s.ObjectCost(k)
					total += want[k]
				}
				if d := ev.Cost(x); d != total || d != s.Cost() {
					t.Fatalf("M=%d N=%d shift %d: Cost = %d, Σ ObjectCost = %d, Scheme.Cost = %d", m, n, shift, d, total, s.Cost())
				}
				single, full, random := bitset.New(n), bitset.New(n), bitset.New(n)
				single.Set(rng.Intn(n))
				for k := 0; k < n; k++ {
					full.Set(k)
					random.SetTo(k, rng.Bool(0.5))
				}
				for _, mask := range []struct {
					what  string
					dirty *bitset.Set
				}{{"empty", bitset.New(n)}, {"single", single}, {"full", full}, {"nil", nil}, {"random", random}} {
					dirty := func(k int) bool { return mask.dirty == nil || mask.dirty.Test(k) }
					for k := range v {
						v[k] = want[k]
						if dirty(k) {
							v[k] = garbage
						}
					}
					if d := ev.Reprice(x, mask.dirty, v); d != total {
						t.Fatalf("M=%d N=%d shift %d, %s mask: Reprice = %d, Cost = %d", m, n, shift, mask.what, d, total)
					}
					for k := range v {
						if v[k] != want[k] {
							t.Fatalf("M=%d N=%d shift %d, %s mask: v[%d] = %d, ObjectCost = %d", m, n, shift, mask.what, k, v[k], want[k])
						}
					}
					var sum int64
					for k := range v {
						if !dirty(k) {
							v[k] = sentinel
						}
						sum += v[k]
					}
					if d := ev.Reprice(x, mask.dirty, v); d != sum {
						t.Fatalf("M=%d N=%d shift %d, %s mask: Reprice over sentinels = %d, want %d", m, n, shift, mask.what, d, sum)
					}
					for k := range v {
						if dirty(k) && v[k] != want[k] || !dirty(k) && v[k] != sentinel {
							t.Fatalf("M=%d N=%d shift %d, %s mask: v[%d] = %d after the sentinel pass", m, n, shift, mask.what, k, v[k])
						}
					}
				}
			}
		}
	}
}
