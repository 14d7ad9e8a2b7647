package verify

// Instance shrinking: given a failing instance and a predicate that
// re-checks the failure, ddmin alternately over objects and sites until
// neither can lose another element. The shrinker is deterministic — it
// tries removals in a fixed order — so a reproducer is stable across runs.

import (
	"drp/internal/core"
)

// maxShrinkProbes caps predicate evaluations so a slow or flaky predicate
// cannot stall the soak; the best reduction found so far is returned.
const maxShrinkProbes = 2000

// shrink reduces p to a (locally) minimal instance still satisfying pred.
// pred must report true for p itself; shrink never returns an instance for
// which pred was not observed true. Removing a site also removes every
// object primaried there, and candidate instances that fail validation are
// treated as non-failing (the bug is in the cost path, not the validators).
func shrink(p *core.Problem, pred func(*core.Problem) bool) *core.Problem {
	sh := &shrinker{pred: pred, budget: maxShrinkProbes}
	cur := p
	for {
		next, changed := sh.pass(cur)
		if !changed || sh.budget <= 0 {
			return next
		}
		cur = next
	}
}

type shrinker struct {
	pred   func(*core.Problem) bool
	budget int
}

// probe builds the candidate and runs the predicate under the probe budget.
func (sh *shrinker) probe(in *rawInstance) (*core.Problem, bool) {
	if sh.budget <= 0 {
		return nil, false
	}
	sh.budget--
	q, err := in.build()
	if err != nil {
		return nil, false
	}
	return q, sh.pred(q)
}

// pass runs one object-ddmin round and one site-ddmin round.
func (sh *shrinker) pass(p *core.Problem) (*core.Problem, bool) {
	q, objChanged := sh.ddmin(p, p.Objects(), sh.dropObjects)
	r, siteChanged := sh.ddmin(q, q.Sites(), sh.dropSites)
	return r, objChanged || siteChanged
}

// ddmin is classic delta debugging over indices 0..n-1 of one dimension:
// try removing chunks at decreasing granularity, restarting whenever a
// removal keeps the failure alive.
func (sh *shrinker) ddmin(p *core.Problem, n int, drop func(*core.Problem, map[int]bool) *rawInstance) (*core.Problem, bool) {
	changed := false
	chunk := (n + 1) / 2
	for chunk >= 1 && n > 1 {
		removedAny := false
		for lo := 0; lo < n && n > 1; {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			if hi-lo >= n { // never remove everything
				lo = hi
				continue
			}
			dead := make(map[int]bool, hi-lo)
			for i := lo; i < hi; i++ {
				dead[i] = true
			}
			in := drop(p, dead)
			if in == nil {
				lo = hi
				continue
			}
			if q, ok := sh.probe(in); ok {
				p, n = q, n-(hi-lo)
				changed, removedAny = true, true
				// Indices shifted down; re-scan from the same position.
				continue
			}
			if sh.budget <= 0 {
				return p, changed
			}
			lo = hi
		}
		if !removedAny {
			chunk /= 2
		} else {
			if chunk > n {
				chunk = (n + 1) / 2
			}
		}
	}
	return p, changed
}

// dropObjects builds the instance minus the dead objects. Returns nil when
// nothing would remain.
func (sh *shrinker) dropObjects(p *core.Problem, dead map[int]bool) *rawInstance {
	n := p.Objects()
	if len(dead) >= n {
		return nil
	}
	in := extract(p)
	out := &rawInstance{
		caps:  in.caps,
		dist:  in.dist,
		reads: make([][]int64, p.Sites()),
	}
	out.writes = make([][]int64, p.Sites())
	for k := 0; k < n; k++ {
		if dead[k] {
			continue
		}
		out.sizes = append(out.sizes, in.sizes[k])
		out.primaries = append(out.primaries, in.primaries[k])
	}
	for i := 0; i < p.Sites(); i++ {
		for k := 0; k < n; k++ {
			if dead[k] {
				continue
			}
			out.reads[i] = append(out.reads[i], in.reads[i][k])
			out.writes[i] = append(out.writes[i], in.writes[i][k])
		}
	}
	return out
}

// dropSites builds the instance minus the dead sites, cascading to the
// objects primaried there. Returns nil when no site — or no object — would
// remain.
func (sh *shrinker) dropSites(p *core.Problem, dead map[int]bool) *rawInstance {
	m, n := p.Sites(), p.Objects()
	if len(dead) >= m {
		return nil
	}
	in := extract(p)
	remap := make([]int, m) // old site -> new site, -1 if dead
	kept := 0
	for i := 0; i < m; i++ {
		if dead[i] {
			remap[i] = -1
			continue
		}
		remap[i] = kept
		kept++
	}
	out := &rawInstance{
		caps:  make([]int64, 0, kept),
		dist:  make([][]int64, 0, kept),
		reads: make([][]int64, kept),
	}
	out.writes = make([][]int64, kept)
	liveObj := make([]bool, n)
	anyObj := false
	for k := 0; k < n; k++ {
		if remap[in.primaries[k]] >= 0 {
			liveObj[k] = true
			anyObj = true
		}
	}
	if !anyObj {
		return nil
	}
	for k := 0; k < n; k++ {
		if !liveObj[k] {
			continue
		}
		out.sizes = append(out.sizes, in.sizes[k])
		out.primaries = append(out.primaries, remap[in.primaries[k]])
	}
	for i := 0; i < m; i++ {
		if remap[i] < 0 {
			continue
		}
		out.caps = append(out.caps, in.caps[i])
		row := make([]int64, 0, kept)
		for j := 0; j < m; j++ {
			if remap[j] >= 0 {
				row = append(row, in.dist[i][j])
			}
		}
		out.dist = append(out.dist, row)
		a := remap[i]
		for k := 0; k < n; k++ {
			if liveObj[k] {
				out.reads[a] = append(out.reads[a], in.reads[i][k])
				out.writes[a] = append(out.writes[a], in.writes[i][k])
			}
		}
	}
	return out
}
