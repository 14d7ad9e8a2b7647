package verify

// Metamorphic properties of the cost model (eq. 4). Each check derives a
// transformed instance whose cost relates to the original's in a way that
// holds by construction — no oracle needed — and fails loudly when the
// production evaluator breaks the relation.

import (
	"fmt"

	"drp/internal/bitset"
	"drp/internal/core"
	"drp/internal/netsim"
	"drp/internal/xrand"
)

// randomScheme fills a valid scheme with uniformly random replicas until a
// run of consecutive placements fails, giving the metamorphic checks a
// non-trivial placement to transform.
func randomScheme(p *core.Problem, rng *xrand.Source) *core.Scheme {
	s := core.NewScheme(p)
	failures := 0
	for failures < 30 {
		if err := s.Add(rng.Intn(p.Sites()), rng.Intn(p.Objects())); err != nil {
			failures++
			continue
		}
		failures = 0
	}
	return s
}

// rawInstance extracts a Problem's raw configuration for transformation.
type rawInstance struct {
	sizes     []int64
	caps      []int64
	primaries []int
	reads     [][]int64
	writes    [][]int64
	dist      [][]int64
}

func extract(p *core.Problem) *rawInstance {
	m := p.Sites()
	in := &rawInstance{
		sizes:     make([]int64, p.Objects()),
		caps:      make([]int64, m),
		primaries: make([]int, p.Objects()),
		reads:     p.ReadMatrix(),
		writes:    p.WriteMatrix(),
		dist:      make([][]int64, m),
	}
	for k := range in.sizes {
		in.sizes[k] = p.Size(k)
		in.primaries[k] = p.Primary(k)
	}
	for i := 0; i < m; i++ {
		in.caps[i] = p.Capacity(i)
		in.dist[i] = append([]int64(nil), p.Dist().Row(i)...)
	}
	return in
}

func (in *rawInstance) build() (*core.Problem, error) {
	m := len(in.caps)
	dm := netsim.NewDistMatrix(m)
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			dm.Set(i, j, in.dist[i][j])
		}
	}
	return core.NewProblem(core.Config{
		Sizes:      in.sizes,
		Capacities: in.caps,
		Primaries:  in.primaries,
		Reads:      in.reads,
		Writes:     in.writes,
		Dist:       dm,
	})
}

// permuteSites relabels p's sites by perm — new index a holds old site
// perm[a] — and returns the relabelled instance with the inverse
// permutation.
func permuteSites(p *core.Problem, perm []int) (*core.Problem, []int, error) {
	m, n := p.Sites(), p.Objects()
	in := extract(p)
	out := &rawInstance{
		sizes:     in.sizes,
		caps:      make([]int64, m),
		primaries: make([]int, n),
		reads:     make([][]int64, m),
		writes:    make([][]int64, m),
		dist:      make([][]int64, m),
	}
	inv := make([]int, m)
	for a, old := range perm {
		inv[old] = a
		out.caps[a] = in.caps[old]
		out.reads[a] = in.reads[old]
		out.writes[a] = in.writes[old]
		out.dist[a] = make([]int64, m)
		for b := 0; b < m; b++ {
			out.dist[a][b] = in.dist[old][perm[b]]
		}
	}
	for k := 0; k < n; k++ {
		out.primaries[k] = inv[in.primaries[k]]
	}
	q, err := out.build()
	if err != nil {
		return nil, nil, fmt.Errorf("permuted instance rejected: %w", err)
	}
	return q, inv, nil
}

// checkSitePermutation: relabelling sites by a permutation σ and permuting a
// scheme the same way leaves D unchanged — eq. 4 has no site-order terms.
func checkSitePermutation(cx *Ctx) error {
	p := cx.P
	m, n := p.Sites(), p.Objects()
	s := randomScheme(p, cx.RNG)
	perm := cx.RNG.Perm(m) // new index a holds old site perm[a]
	q, _, err := permuteSites(p, perm)
	if err != nil {
		return err
	}
	bits := bitset.New(m * n)
	for a := 0; a < m; a++ {
		for k := 0; k < n; k++ {
			if s.Has(perm[a], k) {
				bits.Set(a*n + k)
			}
		}
	}
	ps, err := core.SchemeFromBits(q, bits)
	if err != nil {
		return fmt.Errorf("permuted scheme rejected: %w", err)
	}
	if got, want := cx.schemeCost(ps), cx.schemeCost(s); got != want {
		return fmt.Errorf("site permutation changed D: %d != %d (perm %v)", got, want, perm)
	}
	return nil
}

// checkObjectPermutation: relabelling objects is equally neutral.
func checkObjectPermutation(cx *Ctx) error {
	p := cx.P
	m, n := p.Sites(), p.Objects()
	s := randomScheme(p, cx.RNG)
	perm := cx.RNG.Perm(n) // new object k is old object perm[k]
	in := extract(p)
	out := &rawInstance{
		sizes:     make([]int64, n),
		caps:      in.caps,
		primaries: make([]int, n),
		reads:     make([][]int64, m),
		writes:    make([][]int64, m),
		dist:      in.dist,
	}
	for k, old := range perm {
		out.sizes[k] = in.sizes[old]
		out.primaries[k] = in.primaries[old]
	}
	for i := 0; i < m; i++ {
		out.reads[i] = make([]int64, n)
		out.writes[i] = make([]int64, n)
		for k, old := range perm {
			out.reads[i][k] = in.reads[i][old]
			out.writes[i][k] = in.writes[i][old]
		}
	}
	q, err := out.build()
	if err != nil {
		return fmt.Errorf("permuted instance rejected: %w", err)
	}
	bits := bitset.New(m * n)
	for i := 0; i < m; i++ {
		for k, old := range perm {
			if s.Has(i, old) {
				bits.Set(i*n + k)
			}
		}
	}
	ps, err := core.SchemeFromBits(q, bits)
	if err != nil {
		return fmt.Errorf("permuted scheme rejected: %w", err)
	}
	if got, want := cx.schemeCost(ps), cx.schemeCost(s); got != want {
		return fmt.Errorf("object permutation changed D: %d != %d (perm %v)", got, want, perm)
	}
	return nil
}

// checkScaleCost: D is linear in the link costs, so multiplying every
// C(i,j) by α multiplies D by exactly α. (Uniform scaling also preserves
// shortest-path structure, so the scaled matrix is still a valid C.)
func checkScaleCost(cx *Ctx) error {
	p := cx.P
	s := randomScheme(p, cx.RNG)
	alpha := int64(2 + cx.RNG.Intn(4))
	in := extract(p)
	for i := range in.dist {
		for j := range in.dist[i] {
			in.dist[i][j] *= alpha
		}
	}
	q, err := in.build()
	if err != nil {
		// The α-scaled instance can trip the int64 magnitude guard on
		// extreme inputs; that is the guard working, not a cost-model bug.
		return nil
	}
	qs, err := core.SchemeFromBits(q, s.Bits())
	if err != nil {
		return fmt.Errorf("rebinding scheme onto scaled instance: %w", err)
	}
	if got, want := cx.schemeCost(qs), alpha*cx.schemeCost(s); got != want {
		return fmt.Errorf("scaling C by %d scaled D by %d/%d, want exact", alpha, got, cx.schemeCost(s))
	}
	return nil
}

// checkTrafficLinearity: for a fixed scheme, D is jointly linear in the read
// and write patterns: D(r,w) = D(r,0) + D(0,w) and D(αr,βw) = α·D(r,0) +
// β·D(0,w).
func checkTrafficLinearity(cx *Ctx) error {
	p := cx.P
	s := randomScheme(p, cx.RNG)
	zero := func(rows [][]int64) [][]int64 {
		out := make([][]int64, len(rows))
		for i := range rows {
			out[i] = make([]int64, len(rows[i]))
		}
		return out
	}
	scale := func(rows [][]int64, f int64) [][]int64 {
		out := make([][]int64, len(rows))
		for i := range rows {
			out[i] = make([]int64, len(rows[i]))
			for k := range rows[i] {
				out[i][k] = rows[i][k] * f
			}
		}
		return out
	}
	reads, writes := p.ReadMatrix(), p.WriteMatrix()
	costWith := func(r, w [][]int64) (int64, error) {
		q, err := p.WithPatterns(r, w)
		if err != nil {
			return 0, err
		}
		qs, err := core.SchemeFromBits(q, s.Bits())
		if err != nil {
			return 0, err
		}
		return cx.schemeCost(qs), nil
	}
	readPart, err := costWith(reads, zero(writes))
	if err != nil {
		return fmt.Errorf("reads-only variant: %w", err)
	}
	writePart, err := costWith(zero(reads), writes)
	if err != nil {
		return fmt.Errorf("writes-only variant: %w", err)
	}
	if total := cx.schemeCost(s); total != readPart+writePart {
		return fmt.Errorf("D(r,w)=%d but D(r,0)+D(0,w)=%d+%d", total, readPart, writePart)
	}
	alpha := int64(2 + cx.RNG.Intn(3))
	beta := int64(2 + cx.RNG.Intn(3))
	scaled, err := costWith(scale(reads, alpha), scale(writes, beta))
	if err != nil {
		// Magnitude guard may reject the scaled patterns; not a violation.
		return nil
	}
	if want := alpha*readPart + beta*writePart; scaled != want {
		return fmt.Errorf("D(%d·r,%d·w)=%d, want %d", alpha, beta, scaled, want)
	}
	return nil
}

// checkZeroObject: appending an object that nobody reads or writes adds
// nothing to D (its primary copy sits idle) and leaves D′ unchanged.
func checkZeroObject(cx *Ctx) error {
	p := cx.P
	m, n := p.Sites(), p.Objects()
	s := randomScheme(p, cx.RNG)
	in := extract(p)
	sp := cx.RNG.Intn(m)
	in.sizes = append(in.sizes, 1)
	in.primaries = append(in.primaries, sp)
	in.caps[sp]++ // room for the idle primary copy; capacity never enters D
	for i := 0; i < m; i++ {
		in.reads[i] = append(in.reads[i], 0)
		in.writes[i] = append(in.writes[i], 0)
	}
	q, err := in.build()
	if err != nil {
		return fmt.Errorf("extended instance rejected: %w", err)
	}
	bits := bitset.New(m * (n + 1))
	for i := 0; i < m; i++ {
		for k := 0; k < n; k++ {
			if s.Has(i, k) {
				bits.Set(i*(n+1) + k)
			}
		}
	}
	bits.Set(sp*(n+1) + n)
	qs, err := core.SchemeFromBits(q, bits)
	if err != nil {
		return fmt.Errorf("extended scheme rejected: %w", err)
	}
	if got, want := cx.schemeCost(qs), cx.schemeCost(s); got != want {
		return fmt.Errorf("zero-traffic object moved D: %d != %d", got, want)
	}
	if q.DPrime() != p.DPrime() {
		return fmt.Errorf("zero-traffic object moved D′: %d != %d", q.DPrime(), p.DPrime())
	}
	return nil
}
