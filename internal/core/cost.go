package core

import (
	"math/bits"
	"sync/atomic"

	"drp/internal/bitset"
)

// This file implements the object transfer cost model of Section 2.2.
//
// For a replication scheme X, the total network transfer cost (eq. 4) is
//
//	D = Σ_i Σ_k (1−X_ik)·[ r_k(i)·o_k·min{C(i,j) : X_jk=1}
//	                       + w_k(i)·o_k·C(i,SP_k) ]
//	            + X_ik·Wtot_k·o_k·C(i,SP_k)
//
// where Wtot_k = Σ_x w_k(x). Reads go to the nearest replica; writes are
// shipped to the primary, which broadcasts the updated object to every
// replica. A replicator i pays the full update fan-in Wtot_k·o_k·C(i,SP_k);
// the x=i term of that sum doubles as site i's own shipping cost to the
// primary, which keeps eq. 4 consistent with eqs. 1–2 (the broadcast
// excludes the writer itself).
//
// The evaluator prices one object at a time through a re-association of
// eq. 4 that is exact over the integers. Write d(i) = min{C(i,j) : j ∈ R_k}
// for the replicator set R_k. Link costs are positive off the diagonal and
// zero on it, so d(i) = 0 exactly when i ∈ R_k: a replicator's read term
// vanishes by itself, and adding the ship cost w_k(i)·C(i,SP_k) of *every*
// site turns a replicator's fan-in Wtot_k·C(i,SP_k) into the correction
// (Wtot_k − w_k(i))·C(i,SP_k). Hence
//
//	V_k = o_k·[ Σ_i r_k(i)·d(i) + Σ_i w_k(i)·C(i,SP_k)
//	            + Σ_{j∈R_k} (Wtot_k − w_k(j))·C(j,SP_k) ]
//
// The middle sum is the per-object constant Problem.ship. Only the first
// needs a pass over the sites, and since the matrix is symmetric d is the
// element-wise minimum of the replicators' own rows — contiguous loads
// against the object-major read row Problem.readsT, no branch per site.
// The kernel folds those rows four at a time and folds the last group
// straight into the dot product with the read row: ⌈|R_k|/4⌉ passes over
// the sites, and with at most four replicas d is never stored at all. min
// is exact and idempotent on int64, so every grouping yields the same
// integer, a repeated row included.
//
// Magnitudes: the three bracketed sums are non-negative and at most
// Rtot_k·maxC, Wtot_k·maxC and M·Wtot_k·maxC, so they and their o_k-multiples
// stay under the per-object bound (1 + Rtot_k + (M+1)·Wtot_k)·o_k·maxC that
// NTCBoundOverflow admitted at construction; no partial sum can leave int64.

// Evaluator computes D for raw site-major bit matrices (GA chromosomes)
// while reusing internal buffers. It is not safe for concurrent use; create
// one per goroutine.
type Evaluator struct {
	p *Problem
	// dmin is the M-long nearest-replica distance scratch objectTerms folds
	// all groups of rows but the last into.
	dmin []int64
	// charged[j] == epoch marks site j as charged its correction in the
	// current objectTerms call, so a repeated site is charged once.
	charged []uint32
	epoch   uint32
	// repl and nrepl hold gather's per-object replica lists: object k's
	// sites are repl[k·M : k·M+nrepl[k]]. One flat array keeps the
	// bucketing free of slice-header (pointer) writes. They are allocated
	// on first use, so an evaluator that only prices single objects never
	// holds the M·N words.
	repl  []int32
	nrepl []int32
	// dirty holds the ⌈N/64⌉ words of the objects the last gather
	// bucketed, which Reprice then prices.
	dirty []uint64
	// objects is Cost's scratch vector of V_k.
	objects []int64
	// meter, when set, is incremented once per Cost/Reprice/ObjectCost call
	// — the solver runtime's central evaluation counter for budget
	// accounting.
	meter *atomic.Int64
}

// NewEvaluator returns an evaluator for p.
func NewEvaluator(p *Problem) *Evaluator {
	return &Evaluator{
		p:       p,
		dmin:    make([]int64, p.m),
		charged: make([]uint32, p.m),
		objects: make([]int64, p.n),
	}
}

// replicaLists allocates the replica lists on first use.
func (e *Evaluator) replicaLists() {
	if e.repl == nil {
		e.repl = make([]int32, e.p.n*e.p.m)
		e.nrepl = make([]int32, e.p.n)
		e.dirty = make([]uint64, (e.p.n+63)/64)
	}
}

// SetMeter attaches an evaluation counter: every subsequent Cost, Reprice
// and ObjectCost call adds one to it. The counter may be shared across
// evaluators (and goroutines); nil detaches.
func (e *Evaluator) SetMeter(meter *atomic.Int64) { e.meter = meter }

// gather buckets the set bits of x into per-object replicator lists, for
// the objects set in dirty (nil: every object), and leaves the other lists
// stale. It reads each gene 64 objects at a time, ANDed with the matching
// word of the mask: M·⌈N/64⌉ word reads plus one step per replica gathered.
// Sites are visited in ascending order, so every list is ascending.
func (e *Evaluator) gather(x, dirty *bitset.Set) {
	e.replicaLists()
	m, n := e.p.m, e.p.n
	for jw := range e.dirty {
		j := jw * 64
		switch {
		case dirty != nil:
			e.dirty[jw] = dirty.Word(j)
		case n-j < 64:
			e.dirty[jw] = 1<<uint(n-j) - 1
		default:
			e.dirty[jw] = ^uint64(0)
		}
		for d := e.dirty[jw]; d != 0; d &= d - 1 {
			e.nrepl[j+bits.TrailingZeros64(d)] = 0
		}
	}
	for i := 0; i < m; i++ {
		gene := i * n
		for jw, d := range e.dirty {
			if d == 0 {
				continue
			}
			j := jw * 64
			for w := x.Word(gene+j) & d; w != 0; w &= w - 1 {
				k := j + bits.TrailingZeros64(w)
				e.repl[k*m+int(e.nrepl[k])] = int32(i)
				e.nrepl[k]++
			}
		}
	}
}

// replicators returns object k's replica list as gathered.
func (e *Evaluator) replicators(k int) []int32 {
	m := e.p.m
	return e.repl[k*m : k*m+int(e.nrepl[k])]
}

// Cost returns D for the placement encoded by x. The bitset must be
// site-major with length M·N. Objects with no replica at all contribute as
// if only the primary existed (the GA repairs such chromosomes separately);
// in well-formed schemes the primary bit is always present.
func (e *Evaluator) Cost(x *bitset.Set) int64 { return e.Reprice(x, nil, e.objects) }

// Reprice is Cost for a placement whose V_k are partly known. It writes V_k
// of x into v[k] for every object k set in the N-bit mask dirty (nil: every
// object), leaves the other entries of v as they are and returns Σ_k v[k] —
// D of x, provided those entries already hold x's V_k, as they do when x
// shares object k's column (its bits at all M sites) with the placement v
// was priced for. It counts one evaluation, however many objects it prices.
func (e *Evaluator) Reprice(x, dirty *bitset.Set, v []int64) int64 {
	if e.meter != nil {
		e.meter.Add(1)
	}
	e.gather(x, dirty)
	for jw, w := range e.dirty {
		for ; w != 0; w &= w - 1 {
			k := jw*64 + bits.TrailingZeros64(w)
			v[k] = e.objectTerms(k, e.replicators(k)).Total()
		}
	}
	var d int64
	for _, vk := range v[:e.p.n] {
		d += vk
	}
	return d
}

// terms is Cost split into eq. 4's three summands.
func (e *Evaluator) terms(x *bitset.Set) CostTerms {
	e.gather(x, nil)
	var t CostTerms
	for k := range e.nrepl {
		v := e.objectTerms(k, e.replicators(k))
		t.ReadNTC += v.ReadNTC
		t.WriteNTC += v.WriteNTC
		t.UpdateNTC += v.UpdateNTC
	}
	return t
}

// ObjectCost returns V_k, the NTC attributable to object k, for the
// replicator set given as site indices — a set: order is irrelevant and a
// repeated site counts once; the empty set prices as {SP_k}, i.e. V′_k.
// Used by AGRA, whose chromosomes describe a single object's replication
// scheme.
func (e *Evaluator) ObjectCost(k int, replicators []int32) int64 {
	if e.meter != nil {
		e.meter.Add(1)
	}
	return e.objectTerms(k, replicators).Total()
}

// objectTerms is eq. 4 for one object, in the re-associated form above: the
// package's only transcription of the cost model. Everything else — Cost,
// Reprice, ObjectCost, CostTerms, the delta evaluator, V′ and D′ — sums its
// results.
func (e *Evaluator) objectTerms(k int, repl []int32) CostTerms {
	p := e.p
	if len(repl) == 0 {
		repl = []int32{int32(p.primary[k])}
	}
	read := e.readTerm(p.readsT[k*p.m:][:p.m], repl)
	// The replicators' corrections; writes is site-major, so these |R_k|
	// loads are the kernel's only strided ones. A site repeated in repl is
	// charged once, as it counts once in the min.
	toPrimary := p.dist.Row(p.primary[k])
	e.epoch++
	if e.epoch == 0 {
		clear(e.charged)
		e.epoch = 1
	}
	var fanIn, own int64
	for _, j := range repl {
		if e.charged[j] == e.epoch {
			continue
		}
		e.charged[j] = e.epoch
		fanIn += toPrimary[j]
		own += p.writes[int(j)*p.n+k] * toPrimary[j]
	}
	ok := p.size[k]
	return CostTerms{
		ReadNTC:   ok * read,
		WriteNTC:  ok * (p.ship[k] - own),
		UpdateNTC: ok * p.totalWrites[k] * fanIn,
	}
}

// readTerm returns Σ_i r[i]·d(i), d(i) = min{C(i,j) : j ∈ repl}, for a
// non-empty repl. Every group of four rows but the last is folded into
// dmin, and the last group, with dmin if it was written, into the dot
// product with r.
func (e *Evaluator) readTerm(r []int64, repl []int32) int64 {
	dist := e.p.dist
	if len(repl) == 1 {
		return dot(r, dist.Row(int(repl[0])))
	}
	var rows [5][]int64
	held := 0
	if len(repl) > 4 {
		last := (len(repl) - 1) &^ 3
		for g := 0; g < last; g += 4 {
			held = 0
			if g > 0 {
				rows[0], held = e.dmin, 1
			}
			for _, j := range repl[g : g+4] {
				rows[held], held = dist.Row(int(j)), held+1
			}
			minInto(e.dmin, rows[:held])
		}
		rows[0], held = e.dmin, 1
		repl = repl[last:]
	}
	for _, j := range repl {
		rows[held], held = dist.Row(int(j)), held+1
	}
	return minDot(r, rows[:held])
}

// minInto sets dst[i] to the minimum of rows[·][i] over four or five rows,
// each at least as long as dst; dst may be one of them.
func minInto(dst []int64, rows [][]int64) {
	a, b, c, d := rows[0][:len(dst)], rows[1][:len(dst)], rows[2][:len(dst)], rows[3][:len(dst)]
	if len(rows) == 4 {
		for i := range dst {
			dst[i] = min(a[i], b[i], c[i], d[i])
		}
		return
	}
	f := rows[4][:len(dst)]
	for i := range dst {
		dst[i] = min(a[i], b[i], c[i], d[i], f[i])
	}
}

// dot returns Σ_i r[i]·a[i]. It is the whole read term of a single replica
// — every V′_k and every primaries-only object — so it takes two elements
// per iteration to halve the loop overhead.
func dot(r, a []int64) int64 {
	a = a[:len(r)]
	var s, t int64
	i := 0
	for ; i+1 < len(r); i += 2 {
		s += r[i] * a[i]
		t += r[i+1] * a[i+1]
	}
	if i < len(r) {
		s += r[i] * a[i]
	}
	return s + t
}

// minDot returns Σ_i r[i]·min{rows[·][i]} over two to five rows, each at
// least as long as r. One loop per count keeps every load a row's own.
func minDot(r []int64, rows [][]int64) int64 {
	var s int64
	a, b := rows[0][:len(r)], rows[1][:len(r)]
	switch len(rows) {
	case 2:
		for i, x := range r {
			s += x * min(a[i], b[i])
		}
	case 3:
		c := rows[2][:len(r)]
		for i, x := range r {
			s += x * min(a[i], b[i], c[i])
		}
	case 4:
		c, d := rows[2][:len(r)], rows[3][:len(r)]
		for i, x := range r {
			s += x * min(a[i], b[i], c[i], d[i])
		}
	default:
		c, d, f := rows[2][:len(r)], rows[3][:len(r)], rows[4][:len(r)]
		for i, x := range r {
			s += x * min(a[i], b[i], c[i], d[i], f[i])
		}
	}
	return s
}

// Cost returns the exact NTC (eq. 4) of the scheme.
func (s *Scheme) Cost() int64 { return s.CostTerms().Total() }

// ObjectCost returns V_k for object k under this scheme.
func (s *Scheme) ObjectCost(k int) int64 {
	e := s.p.evals.Get().(*Evaluator)
	defer s.p.evals.Put(e)
	e.replicaLists()
	return e.objectTerms(k, s.appendReplicators(e.repl[:0], k)).Total()
}

// CostTerms is eq. 4's D split into its three summands: the read traffic of
// non-replicators to their nearest replica, the write traffic of
// non-replicators shipping updates to the primary, and the update fan-in
// every replicator receives from the primary. ReadNTC + WriteNTC +
// UpdateNTC == D exactly.
type CostTerms struct {
	ReadNTC   int64 `json:"read_ntc"`
	WriteNTC  int64 `json:"write_ntc"`
	UpdateNTC int64 `json:"update_ntc"`
}

// Total returns the terms' sum, i.e. D.
func (t CostTerms) Total() int64 { return t.ReadNTC + t.WriteNTC + t.UpdateNTC }

// CostTerms returns the scheme's NTC broken into eq. 4's three terms — the
// per-run manifest's cost decomposition.
func (s *Scheme) CostTerms() CostTerms {
	e := s.p.evals.Get().(*Evaluator)
	defer s.p.evals.Put(e)
	return e.terms(s.x)
}

// Savings converts a cost into the paper's quality metric:
// 100·(D_prime − D)/D_prime percent of the primaries-only NTC saved.
func (p *Problem) Savings(cost int64) float64 {
	if p.dPrime == 0 {
		return 0
	}
	return 100 * float64(p.dPrime-cost) / float64(p.dPrime)
}

// Savings returns the scheme's % NTC saving over the primaries-only
// allocation.
func (s *Scheme) Savings() float64 { return s.p.Savings(s.Cost()) }

// Benefit computes B_k(i) (eq. 5): the expected NTC reduction per storage
// unit from replicating object k at site i, judged from site i's local
// view. nearestDist must be the current C(i, SN_k(i)) — the distance from i
// to its nearest replica of k before the new replica is placed.
//
//	B_k(i) = ( R_k(i) − [ Wtot_k·o_k·C(i,SP_k) − W_k(i) ] ) / o_k
//
// where R_k(i) = r_k(i)·o_k·nearestDist is the read traffic eliminated,
// Wtot_k·o_k·C(i,SP_k) is the update fan-in the new replica starts paying,
// and W_k(i) = w_k(i)·o_k·C(i,SP_k) is the write-shipping cost site i
// already paid (it is absorbed into the fan-in, so it offsets the penalty).
func (p *Problem) Benefit(i, k int, nearestDist int64) float64 {
	ok := p.size[k]
	cSP := p.dist.At(i, p.primary[k])
	reads := p.reads[i*p.n+k] * ok * nearestDist
	fanIn := p.totalWrites[k] * ok * cSP
	own := p.writes[i*p.n+k] * ok * cSP
	return float64(reads-(fanIn-own)) / float64(ok)
}

// EstimateNumerator and EstimateDenominator are the two halves of E_k(i)
// (eq. 6): the rapid O(M)-free replica-benefit estimation AGRA uses to pick
// deallocation victims when a transcription overflows a site. Higher values
// mean the replica is worth keeping; deallocate ascending.
//
//	        TotalReads_k + w_k(i) − TotalWrites_k + r_k(i)·s(i)/o_k
//	E_k(i) = ------------------------------------------------------
//	          (Σ_x C(i,x) / mean_l Σ_x C(l,x)) · ReplicaDegree_k
//
// E_k(i) is EstimateNumerator(i, k) / EstimateDenominator(i, degree). The
// numerator does not depend on the degree, so a caller that scores one
// (site, object) pair at many degrees computes it once.
func (p *Problem) EstimateNumerator(i, k int) float64 {
	return float64(p.totalReads[k]+p.writes[i*p.n+k]-p.totalWrites[k]) +
		float64(p.reads[i*p.n+k])*float64(p.cap[i])/float64(p.size[k])
}

// EstimateDenominator is the denominator of E_k(i) (eq. 6) at site i for an
// object held by replicaDegree sites. replicaDegree must be ≥ 1 (the object
// is currently replicated at i); smaller values count as 1.
func (p *Problem) EstimateDenominator(i, replicaDegree int) float64 {
	if replicaDegree < 1 {
		replicaDegree = 1
	}
	den := p.propWeight[i] * float64(replicaDegree)
	if den <= 0 {
		den = float64(replicaDegree)
	}
	return den
}
