package main

import (
	"time"

	"drp/internal/core"
	"drp/internal/load"
	"drp/internal/workload"
	"drp/internal/xrand"
)

// instance generates the data-plane problem of w.
func instance(w *workloadSpec) (*core.Problem, error) {
	if w.Zipf > 0 {
		return workload.GenerateZipf(workload.NewZipfSpec(w.Sites, w.Objects, w.Update, w.Capacity, w.Zipf), instanceSeed)
	}
	return workload.Generate(workload.NewSpec(w.Sites, w.Objects, w.Update, w.Capacity), instanceSeed)
}

// stream is one round's seeded request sequence. The same K requests are
// replayed every round, so NTC, message and append counts are exact
// integers that repeat across rounds and commits.
type stream struct {
	reqs   []load.Request
	reads  int
	writes int
	digest string

	// expect is the eq. 4 cost of each request under the deployed scheme,
	// and the totals split by op (set by price).
	expect                []int64
	expectRead, expectWrt int64
}

// cumulative builds a cumulative ladder over the (site, object) weights.
func cumulative(m, n int, weight func(i, k int) float64) []float64 {
	cum := make([]float64, m*n)
	var acc float64
	for i := 0; i < m; i++ {
		for k := 0; k < n; k++ {
			acc += weight(i, k)
			cum[i*n+k] = acc
		}
	}
	return cum
}

// genStream draws k requests from seed. Origins and objects are uniform
// unless the workload's instance carries a Zipf pattern, in which case
// reads follow r_ik and writes w_ik — the paper's assumption that the
// placement was computed for the traffic it then serves.
//
// Sampling is systematic: the k·WriteFrac writes (and the reads likewise)
// sit at equal steps along the weight ladder from one seeded offset, and
// the seed then shuffles their order. Every (site, object) cell gets its
// expected count to within one request, so ntc_per_req and the remote
// share differ between seeds by rounding only, not by sampling noise that
// at K = 3 000 would exceed any useful regression bound. Arrival offsets
// are the open-loop round's fixed-rate schedule; closed-loop rounds
// ignore them.
func genStream(w *workloadSpec, p *core.Problem, seed uint64, k int) *stream {
	m, n := p.Sites(), p.Objects()
	one := func(int, int) float64 { return 1 }
	readCum, writeCum := cumulative(m, n, one), cumulative(m, n, one)
	if w.Zipf > 0 {
		readCum = cumulative(m, n, func(i, k int) float64 { return float64(p.Reads(i, k)) })
		writeCum = cumulative(m, n, func(i, k int) float64 { return float64(p.Writes(i, k)) })
	}
	rng := xrand.New(seed)
	st := &stream{writes: int(float64(k)*w.WriteFrac + 0.5)}
	st.reads = k - st.writes
	drawn := make([]load.Request, 0, k)
	draw := func(count int, cum []float64, write bool) {
		total, offset, cell := cum[len(cum)-1], rng.Float64(), 0
		for j := 0; j < count; j++ {
			u := (float64(j) + offset) / float64(count) * total
			for cell < len(cum)-1 && cum[cell] <= u {
				cell++ // zero-weight cells never hold u
			}
			drawn = append(drawn, load.Request{Site: cell / n, Obj: cell % n, Write: write})
		}
	}
	draw(st.reads, readCum, false)
	draw(st.writes, writeCum, true)
	gap := time.Duration(float64(time.Second) / w.OpenRate)
	st.reqs = make([]load.Request, k)
	for i, from := range rng.Perm(k) {
		st.reqs[i] = drawn[from]
		st.reqs[i].At = time.Duration(i) * gap
	}
	sched := load.Schedule{Requests: st.reqs, Sites: m, Objects: n}
	st.digest = sched.Digest()
	return st
}

// price computes, from the deployed scheme alone, what eq. 4 charges each
// request: a read costs o_k·C(i, nearest replica); a write ships to the
// primary and the primary broadcasts to every other replicator except the
// writer. This is the oracle the accounted NTC must match to the integer.
func (st *stream) price(s *core.Scheme) {
	p := s.Problem()
	nearest := core.NewNearestTable(s)
	st.expect = make([]int64, len(st.reqs))
	st.expectRead, st.expectWrt = 0, 0
	for idx, r := range st.reqs {
		i, k := r.Site, r.Obj
		if !r.Write {
			c := p.Size(k) * nearest.Dist(i, k)
			st.expect[idx] = c
			st.expectRead += c
			continue
		}
		sp := p.Primary(k)
		hops := p.Cost(i, sp)
		for _, j := range s.Replicators(k) {
			if j != i && j != sp {
				hops += p.Cost(sp, j)
			}
		}
		c := p.Size(k) * hops
		st.expect[idx] = c
		st.expectWrt += c
	}
}

// remote counts the requests that leave their origin site under s.
func (st *stream) remote(s *core.Scheme) int {
	p := s.Problem()
	n := 0
	for _, r := range st.reqs {
		if r.Write && p.Primary(r.Obj) != r.Site || !r.Write && !s.Has(r.Site, r.Obj) {
			n++
		}
	}
	return n
}
