// Package sparse is the million-object solver core (ROADMAP item 3). The
// dense path materialises M×N read/write matrices and M·N-bit chromosomes,
// which caps instances at toy scale; this package exploits the structural
// sparsity of real workloads — most objects are read from few sites
// ("Optimal Data Placement on Networks With Constant Number of Clients",
// PAPERS.md) — with three ingredients:
//
//   - CSR-style access vectors: per-object (site, count) lists for reads and
//     writes, pooled into four flat arrays, so an N=1e6 × M=100 instance
//     with ~7 access entries per object holds ~122 MiB of live heap, where
//     two dense int64 matrices alone would need 1.5 GiB; `drpbench
//     -sparse-bench` (that instance plus its 1 % perturbation, solved and
//     adapted) peaks at ~441 MiB RSS;
//   - candidate-site pruning: per object, the sites at which a replica could
//     ever pay for its update fan-in (plus the primary), computed from a
//     sound upper bound on the achievable saving and from capacity
//     reachability as a ⌈M/64⌉-word bitmask by the greedy's first round,
//     when the object is searched — nothing is stored per object, the
//     solver never considers a pruned (site, object) pair, and
//     internal/verify proves the dense optimum survives pruning;
//   - object-space sharding: objects couple only through per-site capacity,
//     so per-object search fans out across workers and a deterministic
//     capacity-ledger merge reconciles the proposals (solve.go).
//
// The evaluator and delta-evaluator over this representation are
// bit-identical to internal/core's dense ones wherever both apply: both
// compute exact int64 sums of identical eq. 4 terms, and int64 addition is
// associative and commutative, so the reordered sparse summation cannot
// diverge. The differential checks in internal/verify (sparse-eval,
// sparse-delta) and the tests in this package enforce that equality
// term-for-term.
package sparse

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"drp/internal/core"
	"drp/internal/netsim"
	"drp/internal/parallel"
)

// csr is a compressed sparse row (CSR) access pattern over objects:
// object k's entries are Site[Off[k]:Off[k+1]] (strictly ascending site
// indices) with parallel counts Cnt[Off[k]:Off[k+1]]. Offsets are int32 —
// ample, since even a fully dense 1e6×100 instance has 1e8 entries — to
// halve index memory.
type csr struct {
	Off  []int32 // length N+1, non-decreasing, Off[0] = 0
	Site []int32 // ascending within each object, in [0, M)
	Cnt  []int64 // non-negative counts, parallel to Site
}

// bounds returns object k's entry range.
func (c *csr) bounds(k int) (int32, int32) { return c.Off[k], c.Off[k+1] }

// validateShape checks the array lengths and the end offsets of a CSR
// pattern over n objects; object checks each object's entries.
func (c *csr) validateShape(kind string, n int) error {
	if len(c.Off) != n+1 {
		return fmt.Errorf("sparse: %s offsets have length %d, want %d", kind, len(c.Off), n+1)
	}
	if c.Off[0] != 0 {
		return fmt.Errorf("sparse: %s offsets must start at 0, got %d", kind, c.Off[0])
	}
	if len(c.Site) != len(c.Cnt) {
		return fmt.Errorf("sparse: %s has %d sites but %d counts", kind, len(c.Site), len(c.Cnt))
	}
	if int(c.Off[n]) != len(c.Site) {
		return fmt.Errorf("sparse: %s offsets end at %d but %d entries exist", kind, c.Off[n], len(c.Site))
	}
	return nil
}

// object checks object k's entries of a well-shaped pattern over m sites
// — sites strictly ascending in [0, m), counts non-negative — and returns
// their count total, whether that total passed MaxInt64, and Σ cnt·row[site]
// (wrapping on overflow, which the magnitude gate then rejects). Offsets
// that start below zero follow an earlier decrease, which is reported
// first; offsets that run past the entries are checked up to their end.
func (c *csr) object(kind string, k, m int, row []int64) (total, cost int64, overflow bool, err error) {
	lo, hi := c.Off[k], c.Off[k+1]
	if hi < lo || lo < 0 {
		return 0, 0, false, fmt.Errorf("sparse: %s offsets decrease at object %d", kind, k)
	}
	end := int32(len(c.Site))
	prev := int32(-1)
	for idx, stop := lo, min(hi, end); idx < stop; idx++ {
		site, cnt := c.Site[idx], c.Cnt[idx]
		if site < 0 || int(site) >= m {
			return 0, 0, false, fmt.Errorf("sparse: %s object %d references site %d of %d", kind, k, site, m)
		}
		if site <= prev {
			return 0, 0, false, fmt.Errorf("sparse: %s object %d sites not strictly ascending at entry %d", kind, k, idx-lo)
		}
		prev = site
		if cnt < 0 {
			return 0, 0, false, fmt.Errorf("sparse: %s object %d has negative count at site %d", kind, k, site)
		}
		total += cnt
		overflow = overflow || total < 0
		cost += cnt * row[site]
	}
	if hi > end {
		return 0, 0, false, fmt.Errorf("sparse: %s offsets of object %d run past the %d entries", kind, k, end)
	}
	return total, cost, overflow, nil
}

// config carries the raw inputs of a sparse DRP instance into newModel.
// Slices are retained, not copied — callers hand over ownership (the pooled
// flat arrays are the point of this representation).
type config struct {
	Sizes      []int64 // o_k, positive
	Capacities []int64 // s(i), non-negative
	Primaries  []int32 // SP_k
	Reads      csr     // r_k(i) for the sites that read k
	Writes     csr     // w_k(i) for the sites that write k
	Dist       *netsim.DistMatrix
}

// Model is an immutable sparse DRP instance: the same eq. 4 problem as
// core.Problem, stored object-major in CSR form.
type Model struct {
	m, n    int
	size    []int64
	cap     []int64
	primary []int32
	reads   csr
	writes  csr
	dist    *netsim.DistMatrix

	totalReads  []int64
	totalWrites []int64
	vPrime      []int64
	dPrime      int64
	primaryLoad []int64 // Σ o_k over objects with SP_k = i: the floor of any valid usage
	slack       []int64 // s(i) − primaryLoad(i): the room the primaries leave at i

	candWords int // ⌈M/64⌉, the words of a candidate bitmask (firstRound)
}

// newModel validates cfg and builds the instance: the same gates as
// core.NewProblem (positive sizes, primary fit, the worst-case-NTC int64
// overflow bound) plus CSR well-formedness, then the derived caches. It
// prices no candidate site: pruning is the greedy's first round
// (firstRound), run when an object is searched.
func newModel(cfg config) (*Model, error) {
	if cfg.Dist == nil {
		return nil, fmt.Errorf("sparse: nil distance matrix")
	}
	m := cfg.Dist.Sites()
	n := len(cfg.Sizes)
	if n == 0 {
		return nil, fmt.Errorf("sparse: no objects")
	}
	if len(cfg.Capacities) != m {
		return nil, fmt.Errorf("sparse: %d capacities for %d sites", len(cfg.Capacities), m)
	}
	if len(cfg.Primaries) != n {
		return nil, fmt.Errorf("sparse: %d primaries for %d objects", len(cfg.Primaries), n)
	}
	if int64(m)*int64(n) > math.MaxInt32 {
		return nil, fmt.Errorf("sparse: %d sites × %d objects exceeds the int32 offset range", m, n)
	}
	if err := cfg.Dist.Validate(); err != nil {
		return nil, fmt.Errorf("sparse: %w", err)
	}
	mo := &Model{
		m:       m,
		n:       n,
		size:    cfg.Sizes,
		cap:     cfg.Capacities,
		primary: cfg.Primaries,
		reads:   cfg.Reads,
		writes:  cfg.Writes,
		dist:    cfg.Dist,
	}
	for k, sz := range mo.size {
		if sz <= 0 {
			return nil, fmt.Errorf("sparse: object %d has non-positive size %d", k, sz)
		}
	}
	for i, c := range mo.cap {
		if c < 0 {
			return nil, fmt.Errorf("sparse: site %d has negative capacity %d", i, c)
		}
	}
	var sizeSum int64
	for k, sz := range mo.size {
		if sizeSum += sz; sizeSum < 0 {
			return nil, fmt.Errorf("sparse: object sizes overflow int64 at object %d", k)
		}
	}
	mo.primaryLoad = make([]int64, m)
	for k, sp := range mo.primary {
		if sp < 0 || int(sp) >= m {
			return nil, fmt.Errorf("sparse: object %d has out-of-range primary %d", k, sp)
		}
		mo.primaryLoad[sp] += mo.size[k]
	}
	for i, use := range mo.primaryLoad {
		if use > mo.cap[i] {
			return nil, fmt.Errorf("sparse: infeasible instance: primaries at site %d need %d units, capacity is %d", i, use, mo.cap[i])
		}
	}
	if err := mo.buildCaches(); err != nil {
		return nil, err
	}
	mo.slack = make([]int64, m)
	for i := range mo.slack {
		mo.slack[i] = mo.cap[i] - mo.primaryLoad[i]
	}
	mo.candWords = (m + 63) / 64
	return mo, nil
}

// chunkBuild is what one object chunk of buildCaches' pass found: the
// first error of each kind at its lowest object, and the chunk's share of
// D′.
type chunkBuild struct {
	readErr, writeErr, totalErr error
	dPrime                      int64
}

// buildCaches checks both access patterns and fills the per-object caches
// in one pass over chunks of objectChunk objects, run across workers into
// index-addressed slots. Each object's entries are read once: checked,
// summed into the traffic totals and priced into V′_k. The chunks are then
// reduced in order, so the error is the one the checks return run one
// after another: the read pattern's, the write pattern's, a traffic total
// past int64, the magnitude gate — each at its lowest object.
func (mo *Model) buildCaches() error {
	if err := mo.reads.validateShape("read pattern", mo.n); err != nil {
		return err
	}
	// A write pattern of the wrong shape is reported after every read
	// error, so the pass still checks the reads.
	writeShape := mo.writes.validateShape("write pattern", mo.n)
	mo.totalReads = make([]int64, mo.n)
	mo.totalWrites = make([]int64, mo.n)
	mo.vPrime = make([]int64, mo.n)
	chunks := make([]chunkBuild, (mo.n+objectChunk-1)/objectChunk)
	parallel.For(len(chunks), parallel.Workers(0), func(ch int) {
		chunks[ch] = mo.buildChunk(ch, writeShape == nil)
	})
	for _, ch := range chunks {
		if ch.readErr != nil {
			return ch.readErr
		}
	}
	if writeShape != nil {
		return writeShape
	}
	for _, ch := range chunks {
		if ch.writeErr != nil {
			return ch.writeErr
		}
	}
	for _, ch := range chunks {
		if ch.totalErr != nil {
			return ch.totalErr
		}
	}
	// core's worst-case NTC gate: past it the hot paths never need per-term
	// overflow checks, even at N=1e6 where a 53-bit float mantissa or an
	// unchecked product would silently wrap. It reads only the totals.
	if k := core.NTCBoundOverflow(mo.dist, mo.size, mo.totalReads, mo.totalWrites); k >= 0 {
		return errMagnitude(k)
	}
	for _, ch := range chunks {
		mo.dPrime += ch.dPrime
	}
	return nil
}

// buildChunk runs buildCaches' pass over chunk ch; with checkWrites false
// it checks only the reads. V′_k = o_k·Σ cnt·C(site, SP_k) over both
// patterns, which int64 arithmetic makes equal term for term to the sum of
// the o_k·cnt·C products, wrapping or not.
func (mo *Model) buildChunk(ch int, checkWrites bool) chunkBuild {
	var out chunkBuild
	for k := ch * objectChunk; k < min((ch+1)*objectChunk, mo.n); k++ {
		row := mo.dist.Row(int(mo.primary[k]))
		rTot, rCost, rOver, err := mo.reads.object("read pattern", k, mo.m, row)
		if err != nil {
			out.readErr = err
			return out // every later error of the chunk ranks below it
		}
		if !checkWrites || out.writeErr != nil {
			continue // only a read error can still outrank what is found
		}
		wTot, wCost, wOver, err := mo.writes.object("write pattern", k, mo.m, row)
		if err != nil {
			out.writeErr = err
			continue
		}
		if out.totalErr == nil && rOver {
			out.totalErr = fmt.Errorf("sparse: read total for object %d overflows int64", k)
		} else if out.totalErr == nil && wOver {
			out.totalErr = fmt.Errorf("sparse: write total for object %d overflows int64", k)
		}
		mo.totalReads[k], mo.totalWrites[k] = rTot, wTot
		mo.vPrime[k] = mo.size[k] * (rCost + wCost)
		out.dPrime += mo.vPrime[k]
	}
	return out
}

func errMagnitude(k int) error {
	return fmt.Errorf("sparse: traffic volume of object %d overflows the int64 cost range", k)
}

// firstRound is the greedy's first round for object k and the candidate
// rule in one pass. It sets gain[x], for every site x, to what a replica at
// x added to the primaries-only scheme saves with o_k divided out: x's own
// write shipping w_k(x)·C(x,SP_k) plus Σ_j r_j·max(dmin_j − C(s_j,x), 0),
// where dmin_j = C(s_j,SP_k), which it leaves in dmin[:readers] for the
// later rounds. C is symmetric (newModel validates the matrix), so each
// reader adds along its own contiguous row. It returns in left, as a
// candWords-word bitmask (site i is bit i%64 of word i/64), the candidates
// other than the primary: x is kept iff both
//
//   - capacity reachability: o_k ≤ s(x) − primaryLoad(x) — otherwise the
//     primaries pinned to x leave no room, and no valid scheme can ever
//     place k there; and
//
//   - the benefit bound: the replica's δ(x), o_k·(Wtot_k·C(x,SP_k) −
//     gain[x]), is negative. Every reader's nearest-replica distance is at
//     most C(j,SP_k) — the primary is always a replicator — so the saving
//     is the most a replica at x can contribute to ANY replica set, while
//     the fan-in is exact and unavoidable. A pruned x therefore never
//     strictly lowers D, so baseline.Optimal — which enumerates bit-off
//     before bit-on and only replaces its best on a strict improvement —
//     can never return a scheme using a pruned pair; the sparse-prune
//     verify check asserts exactly that. x's own reads enter through
//     C(x,x) = 0, which also gives the primary δ = 0, so it is never in
//     left. The rule depends only on relabelling-invariant quantities, so
//     candidate sets are permutation-equivariant like eq. 4 itself.
//
// No sum overflows: a saving is at most (R_k + W_k)·maxC, and newModel
// admits only instances with o_k·(R_k + (M+1)·W_k + 1)·maxC ≤ MaxInt64,
// o_k ≥ 1. Both tests are sign bits, so a word is packed without a branch.
func (mo *Model) firstRound(k int, dmin, gain []int64, left []uint64) {
	gain = gain[:mo.m]
	clear(gain)
	spRow := mo.dist.Row(int(mo.primary[k]))
	ws, wc := mo.writeEntries(k)
	for j, site := range ws {
		gain[site] = wc[j] * spRow[site]
	}
	rs, rc := mo.readEntries(k)
	for j, site := range rs {
		dmin[j] = spRow[site]
	}
	// Readers go two to a pass over gain, halving its loads and stores.
	j := len(rs) & 1
	if j == 1 {
		d, r, row := dmin[0], rc[0], mo.dist.Row(int(rs[0]))[:len(gain)]
		for x := range gain {
			gain[x] += r * max(d-row[x], 0)
		}
	}
	for ; j < len(rs); j += 2 {
		d0, r0, row0 := dmin[j], rc[j], mo.dist.Row(int(rs[j]))[:len(gain)]
		d1, r1, row1 := dmin[j+1], rc[j+1], mo.dist.Row(int(rs[j+1]))[:len(gain)]
		for x := range gain {
			gain[x] += r0*max(d0-row0[x], 0) + r1*max(d1-row1[x], 0)
		}
	}
	wTot, sz := mo.totalWrites[k], mo.size[k]
	for wi := range left {
		var word uint64
		for x := wi << 6; x < min(wi<<6+64, mo.m); x++ {
			word |= uint64((wTot*spRow[x]-gain[x])&^(mo.slack[x]-sz)) >> 63 << (x & 63)
		}
		left[wi] = word
	}
}

// FromProblem converts a dense instance into the sparse representation
// (zero read/write entries dropped), revalidating through newModel. The
// distance matrix is shared. Differential tests assert the derived caches
// (D′, V′_k, traffic totals) match the dense ones exactly.
func FromProblem(p *core.Problem) (*Model, error) {
	m, n := p.Sites(), p.Objects()
	cfg := config{
		Sizes:      make([]int64, n),
		Capacities: make([]int64, m),
		Primaries:  make([]int32, n),
		Dist:       p.Dist(),
	}
	for k := 0; k < n; k++ {
		cfg.Sizes[k] = p.Size(k)
		cfg.Primaries[k] = int32(p.Primary(k))
	}
	for i := 0; i < m; i++ {
		cfg.Capacities[i] = p.Capacity(i)
	}
	cfg.Reads.Off = make([]int32, n+1)
	cfg.Writes.Off = make([]int32, n+1)
	for k := 0; k < n; k++ {
		for i := 0; i < m; i++ {
			if r := p.Reads(i, k); r > 0 {
				cfg.Reads.Site = append(cfg.Reads.Site, int32(i))
				cfg.Reads.Cnt = append(cfg.Reads.Cnt, r)
			}
			if w := p.Writes(i, k); w > 0 {
				cfg.Writes.Site = append(cfg.Writes.Site, int32(i))
				cfg.Writes.Cnt = append(cfg.Writes.Cnt, w)
			}
		}
		cfg.Reads.Off[k+1] = int32(len(cfg.Reads.Site))
		cfg.Writes.Off[k+1] = int32(len(cfg.Writes.Site))
	}
	return newModel(cfg)
}

// Objects returns N.
func (mo *Model) Objects() int { return mo.n }

// Primary returns SP_k.
func (mo *Model) Primary(k int) int32 { return mo.primary[k] }

// TotalReads returns Σ_i r_k(i).
func (mo *Model) TotalReads(k int) int64 { return mo.totalReads[k] }

// TotalWrites returns Σ_i w_k(i).
func (mo *Model) TotalWrites(k int) int64 { return mo.totalWrites[k] }

// DPrime returns the NTC of the primaries-only allocation.
func (mo *Model) DPrime() int64 { return mo.dPrime }

// Candidates returns object k's candidate sites, ascending, primary
// included, in a new slice. It runs the greedy's first round for the
// object.
func (mo *Model) Candidates(k int) []int32 {
	left := make([]uint64, mo.candWords)
	scratch := make([]int64, 2*mo.m)
	mo.firstRound(k, scratch[:mo.m], scratch[mo.m:], left)
	n := 1
	for _, word := range left {
		n += bits.OnesCount64(word)
	}
	out := make([]int32, 0, n)
	for wi, word := range left {
		for ; word != 0; word &= word - 1 {
			out = append(out, int32(wi<<6|bits.TrailingZeros64(word)))
		}
	}
	at, _ := search(out, mo.primary[k])
	return slices.Insert(out, at, mo.primary[k])
}

// CandidateCount returns the total candidate count across objects (the
// solver's search-space size after pruning). It runs the greedy's first
// round for every object, in chunks of objectChunk objects across workers,
// and sums the chunks' counts in chunk order, so callers keep the result.
func (mo *Model) CandidateCount() int {
	workers := parallel.Workers(0)
	scratches := newScratches(mo, workers)
	counts := make([]int, (mo.n+objectChunk-1)/objectChunk)
	parallel.ForWorker(len(counts), workers, func(w, ch int) {
		sc := &scratches[w]
		count := 0
		for k := ch * objectChunk; k < min((ch+1)*objectChunk, mo.n); k++ {
			mo.firstRound(k, sc.dmin, sc.gain, sc.left)
			for _, word := range sc.left {
				count += bits.OnesCount64(word)
			}
		}
		counts[ch] = count
	})
	total := mo.n // the primaries
	for _, count := range counts {
		total += count
	}
	return total
}

// readEntries returns object k's reader sites and counts as views into the
// pooled CSR arrays.
func (mo *Model) readEntries(k int) ([]int32, []int64) {
	lo, hi := mo.reads.bounds(k)
	return mo.reads.Site[lo:hi], mo.reads.Cnt[lo:hi]
}

// writeEntries returns object k's writer sites and counts.
func (mo *Model) writeEntries(k int) ([]int32, []int64) {
	lo, hi := mo.writes.bounds(k)
	return mo.writes.Site[lo:hi], mo.writes.Cnt[lo:hi]
}

// AccessEntries returns the pooled entry totals (reads, writes) — the
// instance's nnz, reported by the bench trajectory.
func (mo *Model) AccessEntries() (int, int) {
	return len(mo.reads.Site), len(mo.writes.Site)
}

// Savings converts a cost into the paper's quality metric: percent of the
// primaries-only NTC saved.
func (mo *Model) Savings(cost int64) float64 {
	if mo.dPrime == 0 {
		return 0
	}
	return 100 * float64(mo.dPrime-cost) / float64(mo.dPrime)
}
