package sparse

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/big"
	"slices"
	"strings"
	"testing"

	"drp/internal/baseline"
	"drp/internal/core"
	"drp/internal/netsim"
	"drp/internal/workload"
	"drp/internal/xrand"
)

func TestFromProblemEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		p, err := workload.Generate(workload.NewSpec(10, 14, 0.05, 0.2), seed)
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		mo, err := FromProblem(p)
		if err != nil {
			t.Fatalf("seed %d: FromProblem: %v", seed, err)
		}
		if mo.m != p.Sites() || mo.Objects() != p.Objects() {
			t.Fatalf("seed %d: dims %d×%d, want %d×%d", seed, mo.m, mo.Objects(), p.Sites(), p.Objects())
		}
		if mo.DPrime() != p.DPrime() {
			t.Fatalf("seed %d: D′ %d, dense %d", seed, mo.DPrime(), p.DPrime())
		}
		for k := 0; k < p.Objects(); k++ {
			if mo.vPrime[k] != p.VPrime(k) {
				t.Fatalf("seed %d: V′_%d %d, dense %d", seed, k, mo.vPrime[k], p.VPrime(k))
			}
			if mo.TotalReads(k) != p.TotalReads(k) || mo.TotalWrites(k) != p.TotalWrites(k) {
				t.Fatalf("seed %d: object %d traffic totals diverge", seed, k)
			}
		}
		for i := 0; i < p.Sites(); i++ {
			if mo.cap[i] != p.Capacity(i) {
				t.Fatalf("seed %d: capacity %d diverges", seed, i)
			}
		}
	}
}

func TestModelRoundTrip(t *testing.T) {
	mo := testModel(t, 12, 40, 7)
	p := denseFromModel(t, mo)
	back, err := FromProblem(p)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if back.DPrime() != mo.DPrime() {
		t.Fatalf("round-trip D′ %d, want %d", back.DPrime(), mo.DPrime())
	}
	r1, w1 := mo.AccessEntries()
	r2, w2 := back.AccessEntries()
	if r1 != r2 || w1 != w2 {
		t.Fatalf("round-trip nnz (%d,%d), want (%d,%d)", r2, w2, r1, w1)
	}
}

// validConfig builds a minimal well-formed 2-site, 2-object config for the
// validation table to corrupt.
func validConfig() config {
	d := netsim.NewDistMatrix(2)
	d.Set(0, 1, 3)
	return config{
		Sizes:      []int64{5, 7},
		Capacities: []int64{20, 20},
		Primaries:  []int32{0, 1},
		Reads: csr{
			Off:  []int32{0, 1, 2},
			Site: []int32{1, 0},
			Cnt:  []int64{4, 9},
		},
		Writes: csr{
			Off:  []int32{0, 0, 1},
			Site: []int32{0},
			Cnt:  []int64{2},
		},
		Dist: d,
	}
}

func TestNewModelValidation(t *testing.T) {
	if _, err := newModel(validConfig()); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name    string
		corrupt func(*config)
		want    string
	}{
		{"nil dist", func(c *config) { c.Dist = nil }, "nil distance"},
		{"no objects", func(c *config) {
			c.Sizes = nil
			c.Primaries = nil
			c.Reads = csr{Off: []int32{0}}
			c.Writes = csr{Off: []int32{0}}
		}, "no objects"},
		{"capacity count", func(c *config) { c.Capacities = c.Capacities[:1] }, "capacities"},
		{"primary count", func(c *config) { c.Primaries = c.Primaries[:1] }, "primaries"},
		{"non-positive size", func(c *config) { c.Sizes[0] = 0 }, "non-positive size"},
		{"negative capacity", func(c *config) { c.Capacities[1] = -1 }, "negative capacity"},
		{"primary range", func(c *config) { c.Primaries[0] = 5 }, "out-of-range primary"},
		{"primary fit", func(c *config) { c.Capacities[0] = 1 }, "infeasible"},
		{"offset length", func(c *config) { c.Reads.Off = c.Reads.Off[:2] }, "offsets have length"},
		{"offset start", func(c *config) { c.Reads.Off[0] = 1 }, "start at 0"},
		{"offset end", func(c *config) { c.Reads.Off[2] = 1 }, "entries exist"},
		{"offset decrease", func(c *config) { c.Reads.Off[1] = 2; c.Reads.Off[2] = 1 }, "entries exist"},
		{"ragged counts", func(c *config) { c.Writes.Cnt = c.Writes.Cnt[:0] }, "counts"},
		{"site range", func(c *config) { c.Reads.Site[0] = 9 }, "references site"},
		{"site order", func(c *config) {
			c.Reads.Off = []int32{0, 2, 2}
			c.Reads.Site = []int32{1, 1}
			c.Reads.Cnt = []int64{4, 9}
		}, "strictly ascending"},
		{"negative count", func(c *config) { c.Reads.Cnt[0] = -4 }, "negative count"},
	}
	for _, tc := range cases {
		cfg := validConfig()
		tc.corrupt(&cfg)
		_, err := newModel(cfg)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestOverflowGateBoundary pins the worst-case-NTC gate at the exact int64
// boundary: the sparse and dense constructors accept and reject the same
// instances, and at the largest accepted magnitude the evaluator's sum is
// still exact.
func TestOverflowGateBoundary(t *testing.T) {
	build := func(readCount int64) (config, core.Config) {
		d := netsim.NewDistMatrix(2)
		d.Set(0, 1, 1)
		size := int64(1) << 31
		sc := config{
			Sizes:      []int64{size},
			Capacities: []int64{size, size},
			Primaries:  []int32{0},
			Reads:      csr{Off: []int32{0, 1}, Site: []int32{1}, Cnt: []int64{readCount}},
			Writes:     csr{Off: []int32{0, 0}},
			Dist:       d,
		}
		dc := core.Config{
			Sizes:      []int64{size},
			Capacities: []int64{size, size},
			Primaries:  []int{0},
			Reads:      [][]int64{{0}, {readCount}},
			Writes:     [][]int64{{0}, {0}},
			Dist:       d,
		}
		return sc, dc
	}
	// With M=2, W=0, maxC=1, o=2^31: the gate bound is (1+R)·2^31, which
	// fits int64 iff 1+R ≤ 2^32−1.
	fitsR := int64(1)<<32 - 2
	sc, dc := build(fitsR)
	mo, errS := newModel(sc)
	_, errD := core.NewProblem(dc)
	if errS != nil || errD != nil {
		t.Fatalf("boundary instance rejected: sparse %v, dense %v", errS, errD)
	}
	wantV := fitsR * (int64(1) << 31) // R·o·C(1,0)
	if mo.DPrime() != wantV {
		t.Fatalf("boundary D′ = %d, want %d", mo.DPrime(), wantV)
	}
	if got := NewEvaluator(mo).Cost(NewAssignment(mo)); got != wantV {
		t.Fatalf("boundary cost = %d, want %d (wrapped?)", got, wantV)
	}
	if wantV <= 0 || wantV > math.MaxInt64-(int64(1)<<31) {
		t.Fatalf("boundary not near the int64 edge: %d", wantV)
	}

	sc, dc = build(fitsR + 1)
	_, errS = newModel(sc)
	_, errD = core.NewProblem(dc)
	if errS == nil || errD == nil {
		t.Fatalf("over-boundary instance accepted: sparse %v, dense %v", errS, errD)
	}
	if !strings.Contains(errS.Error(), "overflows") {
		t.Fatalf("sparse rejection %q does not mention overflow", errS)
	}
}

// TestCandidatesContainOptimal is the pruning soundness property: on small
// instances the exhaustive dense optimum never replicates an object at a
// site the sparse model pruned.
func TestCandidatesContainOptimal(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		p, err := workload.Generate(workload.NewSpec(4, 4, 0.08, 0.25), seed)
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		mo, err := FromProblem(p)
		if err != nil {
			t.Fatalf("seed %d: FromProblem: %v", seed, err)
		}
		opt, err := baseline.Optimal(p, 16)
		if err != nil {
			t.Fatalf("seed %d: optimal: %v", seed, err)
		}
		for k := 0; k < p.Objects(); k++ {
			cand := mo.Candidates(k)
			for _, i := range opt.Replicators(k) {
				if _, found := search(cand, int32(i)); !found {
					t.Fatalf("seed %d: optimum replicates object %d at pruned site %d (candidates %v)", seed, k, i, cand)
				}
			}
		}
		// The bridge must therefore accept the optimum wholesale.
		if _, err := FromScheme(mo, opt); err != nil {
			t.Fatalf("seed %d: optimum rejected by FromScheme: %v", seed, err)
		}
	}
}

// TestCandidatePruningEquivariance relabels the sites and checks the
// candidate sets relabel with them, like the metamorphic eq. 4 checks.
func TestCandidatePruningEquivariance(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		mo := testModel(t, 9, 25, seed)
		m, n := mo.m, mo.Objects()
		rng := xrand.New(seed * 77)
		perm := rng.Perm(m) // out site a ← in site perm[a]
		inv := make([]int32, m)
		for a, b := range perm {
			inv[b] = int32(a)
		}
		d := netsim.NewDistMatrix(m)
		for a := 0; a < m; a++ {
			for b := a + 1; b < m; b++ {
				d.Set(a, b, mo.dist.At(perm[a], perm[b]))
			}
		}
		cfg := config{
			Sizes:      mo.size,
			Capacities: make([]int64, m),
			Primaries:  make([]int32, n),
			Dist:       d,
		}
		for a := 0; a < m; a++ {
			cfg.Capacities[a] = mo.cap[perm[a]]
		}
		cfg.Reads.Off = make([]int32, n+1)
		cfg.Writes.Off = make([]int32, n+1)
		type entry struct {
			site int32
			cnt  int64
		}
		remap := func(sites []int32, cnts []int64) []entry {
			out := make([]entry, len(sites))
			for idx, s := range sites {
				out[idx] = entry{inv[s], cnts[idx]}
			}
			for i := 1; i < len(out); i++ {
				for j := i; j > 0 && out[j-1].site > out[j].site; j-- {
					out[j-1], out[j] = out[j], out[j-1]
				}
			}
			return out
		}
		for k := 0; k < n; k++ {
			cfg.Primaries[k] = inv[mo.Primary(k)]
			rs, rc := mo.readEntries(k)
			for _, e := range remap(rs, rc) {
				cfg.Reads.Site = append(cfg.Reads.Site, e.site)
				cfg.Reads.Cnt = append(cfg.Reads.Cnt, e.cnt)
			}
			cfg.Reads.Off[k+1] = int32(len(cfg.Reads.Site))
			ws, wc := mo.writeEntries(k)
			for _, e := range remap(ws, wc) {
				cfg.Writes.Site = append(cfg.Writes.Site, e.site)
				cfg.Writes.Cnt = append(cfg.Writes.Cnt, e.cnt)
			}
			cfg.Writes.Off[k+1] = int32(len(cfg.Writes.Site))
		}
		permuted, err := newModel(cfg)
		if err != nil {
			t.Fatalf("seed %d: permuted model: %v", seed, err)
		}
		for k := 0; k < n; k++ {
			orig := mo.Candidates(k)
			mapped := make([]int32, len(orig))
			for idx, s := range orig {
				mapped[idx] = inv[s]
			}
			for i := 1; i < len(mapped); i++ {
				for j := i; j > 0 && mapped[j-1] > mapped[j]; j-- {
					mapped[j-1], mapped[j] = mapped[j], mapped[j-1]
				}
			}
			got := permuted.Candidates(k)
			if len(got) != len(mapped) {
				t.Fatalf("seed %d: object %d candidates %v, want relabelled %v", seed, k, got, mapped)
			}
			for idx := range got {
				if got[idx] != mapped[idx] {
					t.Fatalf("seed %d: object %d candidates %v, want relabelled %v", seed, k, got, mapped)
				}
			}
		}
	}
}

// TestCandidatesMatchRule holds every object's candidate set to
// candidateRule on generated instances of one, two and three mask words —
// M = 65 and 130 put a candidate one bit past a word boundary — at a roomy
// and a tight capacity ratio, and CandidateCount to the listed sets. It
// kills a gain left over from the previous object, ≤ for <, a dropped
// reachability test, a primary listed twice and a word-boundary slip.
func TestCandidatesMatchRule(t *testing.T) {
	for _, m := range []int{1, 2, 7, 64, 65, 100, 130} {
		unreachable, top := 0, int32(0)
		for _, ratio := range []float64{0.15, 0.01} {
			spec := NewWorkloadSpec(m, 300)
			spec.CapacityRatio = ratio
			mo, err := GenerateWorkload(spec, uint64(m))
			if err != nil {
				t.Fatalf("M=%d C=%v: %v", m, ratio, err)
			}
			rule := candidateRule(mo)
			total := 0
			for k := 0; k < mo.Objects(); k++ {
				got := mo.Candidates(k)
				want, dropped := rule(k)
				if !slices.Equal(got, want) {
					t.Fatalf("M=%d C=%v object %d: candidates %v, rule gives %v", m, ratio, k, got, want)
				}
				total += len(got)
				unreachable += dropped
				top = max(top, got[len(got)-1])
			}
			if total != mo.CandidateCount() {
				t.Fatalf("M=%d C=%v: CandidateCount %d, lists hold %d", m, ratio, mo.CandidateCount(), total)
			}
		}
		if m > 1 && (top != int32(m-1) || unreachable == 0) {
			t.Fatalf("M=%d: highest candidate site %d, %d sites dropped for room alone; the instances miss the last mask bit or reachability", m, top, unreachable)
		}
	}
}

// TestCandidatesPinned pins the candidate bitmasks of three generated
// instances, one, two and three mask words per object, by count and by an
// FNV-1a digest of the objects' masks in order, primary bit set.
func TestCandidatesPinned(t *testing.T) {
	for _, tc := range []struct {
		sites  int
		count  int
		digest uint64
	}{
		{64, 884170, 0x82ceec7eb319e1d9},
		{100, 1324157, 0x1a2c9d72e66a8a23},
		{130, 1598987, 0xcff4cc3eac1a2e9b},
	} {
		mo := testModel(t, tc.sites, 20000, 1)
		h := fnv.New64a()
		dmin, gain, mask := make([]int64, mo.m), make([]int64, mo.m), make([]uint64, mo.candWords)
		for k := 0; k < mo.Objects(); k++ {
			mo.firstRound(k, dmin, gain, mask)
			sp := mo.Primary(k)
			mask[sp>>6] |= 1 << (sp & 63)
			if err := binary.Write(h, binary.LittleEndian, mask); err != nil {
				t.Fatal(err)
			}
		}
		if got := h.Sum64(); mo.CandidateCount() != tc.count || got != tc.digest {
			t.Errorf("M=%d: %d candidates, mask digest %#x; pinned %d, %#x", tc.sites, mo.CandidateCount(), got, tc.count, tc.digest)
		}
	}
}

// TestCandidatesAtMagnitudeGate prunes single-object instances one read
// unit under newModel's magnitude gate — o_k = 1, C up to 2^40 and the
// largest read and write counts the gate admits, so the pruning sums come
// as close to the int64 edge as any admitted instance lets them — and
// holds every mask to the rule evaluated in math/big.
func TestCandidatesAtMagnitudeGate(t *testing.T) {
	const m = 4
	maxC := int64(1) << 40
	d := netsim.NewDistMatrix(m)
	for _, e := range []struct {
		i, j int
		c    int64
	}{{0, 1, maxC}, {0, 2, maxC / 2}, {0, 3, 3}, {1, 2, maxC - 1}, {1, 3, maxC / 3}, {2, 3, 7}} {
		d.Set(e.i, e.j, e.c)
	}
	// The gate admits (R + (M+1)·W + 1)·maxC ≤ MaxInt64; budget is the
	// largest R + (M+1)·W it lets through.
	budget := math.MaxInt64/maxC - 1
	u := budget / (m + 1) / 8
	shapes := []struct{ writes, reads [m]int64 }{
		{[m]int64{0, 0, 0, 0}, [m]int64{1, 1, 1, 1}},
		// Every read at site 1, maxC from site 0: at primary 0 the saving
		// of a replica at 1 is R·maxC, within 2^41 of MaxInt64.
		{[m]int64{0, 0, 0, 0}, [m]int64{0, 1, 0, 0}},
		{[m]int64{0, 4 * u, 0, 0}, [m]int64{1, 2, 3, 4}},
		{[m]int64{u, 2 * u, 3 * u, u}, [m]int64{5, 0, 1, 9}},
		{[m]int64{0, 0, 7 * u, 0}, [m]int64{0, 1, 0, 0}},
	}
	pattern := func(cnt [m]int64) csr {
		c := csr{Off: []int32{0, 0}}
		for i, n := range cnt {
			if n > 0 {
				c.Site = append(c.Site, int32(i))
				c.Cnt = append(c.Cnt, n)
			}
		}
		c.Off[1] = int32(len(c.Site))
		return c
	}
	kept, pruned := 0, 0
	for _, sh := range shapes {
		var wTot, weights int64
		for i := range m {
			wTot += sh.writes[i]
			weights += sh.reads[i]
		}
		// Share the read volume the gate leaves by the shape's weights; the
		// rounding remainder goes to the last reader.
		rTot := budget - (m+1)*wTot
		var reads [m]int64
		var placed int64
		last := 0
		for i, w := range sh.reads {
			reads[i] = rTot * w / weights
			placed += reads[i]
			if w > 0 {
				last = i
			}
		}
		reads[last] += rTot - placed
		for sp := range int32(m) {
			caps := []int64{1, 1, 1, 1}
			caps[(sp+2)%m] = 0 // no room for the object: pruned by reachability
			model := func(reads [m]int64) (*Model, error) {
				return newModel(config{Sizes: []int64{1}, Capacities: caps, Primaries: []int32{sp}, Reads: pattern(reads), Writes: pattern(sh.writes), Dist: d})
			}
			mo, err := model(reads)
			if err != nil {
				t.Fatalf("writes %v, primary %d: instance under the gate rejected: %v", sh.writes, sp, err)
			}
			over := reads
			over[last]++
			if _, err := model(over); err == nil || !strings.Contains(err.Error(), "overflows") {
				t.Fatalf("writes %v, primary %d: one read unit more is not rejected by the gate: %v", sh.writes, sp, err)
			}
			var want []int32
			for i := range m {
				keep := i == int(sp)
				if !keep && caps[i] >= 1 {
					c := big.NewInt(d.At(i, int(sp)))
					saving := new(big.Int).Mul(big.NewInt(reads[i]+sh.writes[i]), c)
					for j := range m {
						if drop := d.At(j, int(sp)) - d.At(j, i); j != i && drop > 0 {
							saving.Add(saving, new(big.Int).Mul(big.NewInt(reads[j]), big.NewInt(drop)))
						}
					}
					keep = saving.Cmp(new(big.Int).Mul(big.NewInt(wTot), c)) > 0
					if keep {
						kept++
					} else {
						pruned++
					}
				}
				if keep {
					want = append(want, int32(i))
				}
			}
			if got := mo.Candidates(0); !slices.Equal(got, want) {
				t.Fatalf("writes %v, reads %v, primary %d: candidates %v, exact rule gives %v", sh.writes, reads, sp, got, want)
			}
		}
	}
	if kept == 0 || pruned == 0 {
		t.Fatalf("the benefit rule kept %d and pruned %d reachable sites; the instances do not exercise both outcomes", kept, pruned)
	}
}

// TestCapacityReachabilityPrune: a site whose primaries leave no room for
// an object is never that object's candidate.
func TestCapacityReachabilityPrune(t *testing.T) {
	d := netsim.NewDistMatrix(3)
	d.Set(0, 1, 5)
	d.Set(0, 2, 5)
	d.Set(1, 2, 5)
	cfg := config{
		Sizes:      []int64{10, 4},
		Capacities: []int64{10, 12, 20},
		Primaries:  []int32{0, 1},
		// Both objects heavily read everywhere, so traffic alone would keep
		// every site.
		Reads: csr{
			Off:  []int32{0, 3, 6},
			Site: []int32{0, 1, 2, 0, 1, 2},
			Cnt:  []int64{50, 50, 50, 50, 50, 50},
		},
		Writes: csr{Off: []int32{0, 0, 0}},
		Dist:   d,
	}
	mo, err := newModel(cfg)
	if err != nil {
		t.Fatalf("model: %v", err)
	}
	// Object 0 (size 10) cannot reach site 0's free space beyond its own
	// primary load (10 of 10 used)… it IS the primary there. Site 1 has
	// capacity 12 with primary load 4: object 0 does not fit (4+10 > 12).
	if _, found := search(mo.Candidates(0), 1); found {
		t.Fatalf("object 0 candidates %v include unreachable site 1", mo.Candidates(0))
	}
	// Site 2 (capacity 20, no primaries) fits and the read traffic pays.
	if _, found := search(mo.Candidates(0), 2); !found {
		t.Fatalf("object 0 candidates %v miss reachable site 2", mo.Candidates(0))
	}
}
