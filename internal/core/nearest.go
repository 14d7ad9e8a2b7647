package core

// NearestTable maintains SN_k(i) — for every (site, object) pair, the
// nearest site currently holding a replica of the object — together with the
// corresponding distance. The paper's replication policy stores exactly this
// two-field record at every site; SRA consults and incrementally updates it
// after each placement.
type NearestTable struct {
	s *Scheme // the scheme described, whose replica sets Price reads
	// site[i*N+k] = SN_k(i); dist[i*N+k] = C(i, SN_k(i)).
	site []int32
	dist []int64
}

// NewNearestTable builds the table for the scheme's current placements in
// O(M · Σ_k |R_k|). One replica-list buffer serves every object.
func NewNearestTable(s *Scheme) *NearestTable {
	p := s.p
	t := &NearestTable{
		s:    s,
		site: make([]int32, p.m*p.n),
		dist: make([]int64, p.m*p.n),
	}
	repl := make([]int32, 0, p.m)
	for k := 0; k < p.n; k++ {
		repl = s.appendReplicators(repl[:0], k)
		for i := 0; i < p.m; i++ {
			row := p.dist.Row(i)
			best, bestD := repl[0], row[repl[0]]
			for _, j := range repl[1:] {
				if d := row[j]; d < bestD {
					best, bestD = j, d
				}
			}
			t.site[i*p.n+k] = best
			t.dist[i*p.n+k] = bestD
		}
	}
	return t
}

// Nearest returns SN_k(i).
func (t *NearestTable) Nearest(i, k int) int { return int(t.site[i*t.s.p.n+k]) }

// Dist returns C(i, SN_k(i)).
func (t *NearestTable) Dist(i, k int) int64 { return t.dist[i*t.s.p.n+k] }

// Add updates the table after a replica of object k is placed at site j:
// every site whose current nearest replica is farther than j switches to j.
// O(M).
func (t *NearestTable) Add(j, k int) {
	n := t.s.p.n
	row := t.s.p.dist.Row(j)
	for i := 0; i < t.s.p.m; i++ {
		if d := row[i]; d < t.dist[i*n+k] {
			t.dist[i*n+k] = d
			t.site[i*n+k] = int32(j)
		}
	}
}

// Price is eq. 4's charge for one request from site for object obj under
// the table's scheme, split into eq. 4's terms. Sites marked in down cannot
// serve; a nil down means every site is up. A read costs o_k·C(site, j) for
// the nearest live replica j — the head of RankReplicas over the live
// replicators, the order a node's read fails over in — and with no live
// replica it is not served. A write is not served while the primary
// SP_k is down; otherwise it ships o_k·C(site, SP_k) to the primary, which
// broadcasts o_k·C(SP_k, j) to every live replicator j other than the
// writer and itself. A read is ReadNTC and a broadcast UpdateNTC; the ship
// is WriteNTC unless the writer holds a replica, whose ship eq. 4 counts
// in that replica's fan-in, UpdateNTC. So with every site up, Price summed
// over every request the problem counts is Scheme.CostTerms, term for
// term. The table must be current with its scheme, as Add and Remove keep
// it.
func (t *NearestTable) Price(site, obj int, write bool, down []bool) (CostTerms, bool) {
	p, s := t.s.p, t.s
	size := p.size[obj]
	if !write {
		d := t.dist[site*p.n+obj]
		if down != nil && down[t.site[site*p.n+obj]] {
			live := RankReplicas(nil, p, site, s.Replicators(obj), func(j int) bool { return !down[j] })
			if len(live) == 0 {
				return CostTerms{}, false
			}
			d = p.dist.At(site, live[0])
		}
		return CostTerms{ReadNTC: size * d}, true
	}
	sp := p.primary[obj]
	if down != nil && down[sp] {
		return CostTerms{}, false
	}
	var c CostTerms
	if ship := size * p.dist.At(site, sp); s.Has(site, obj) {
		c.UpdateNTC = ship
	} else {
		c.WriteNTC = ship
	}
	row := p.dist.Row(sp)
	for j := 0; j < p.m; j++ {
		if j != site && j != sp && s.Has(j, obj) && (down == nil || !down[j]) {
			c.UpdateNTC += size * row[j]
		}
	}
	return c, true
}

// RankReplicas orders an object's replica sites for a reader at site
// from: ascending transfer cost C(from, j) with ties broken by the lower
// site index — the failover order eq. 4's min C(i,j) induces. Sites for
// which inView returns false (departed from the current membership view,
// or otherwise ineligible) are skipped entirely rather than ranked last,
// so the order over the surviving sites is deterministic and identical
// to ranking the restricted view directly. A nil inView keeps every
// site. The reader's own site is ranked like any other; callers serving
// locally should check Holds first. The ranking is appended to dst and
// the extended slice returned, so a caller that passes a buffer with room
// for it allocates nothing.
func RankReplicas(dst []int, p *Problem, from int, replicas []int, inView func(int) bool) []int {
	start := len(dst)
	for _, j := range replicas {
		if j < 0 || j >= p.m {
			continue
		}
		if inView != nil && !inView(j) {
			continue
		}
		dst = append(dst, j)
	}
	sortReplicas(dst[start:], p.dist.Row(from))
	return dst
}

// sortReplicas is an insertion sort by (distance, site index) — replica
// sets are tiny, and stability of the index tie-break is what makes the
// failover order reproducible.
func sortReplicas(sites []int, row []int64) {
	for i := 1; i < len(sites); i++ {
		j := sites[i]
		x := i - 1
		for x >= 0 && (row[sites[x]] > row[j] || (row[sites[x]] == row[j] && sites[x] > j)) {
			sites[x+1] = sites[x]
			x--
		}
		sites[x+1] = j
	}
}
