// Package sra implements the Static Replication Algorithm of Section 3: a
// greedy heuristic that repeatedly visits sites and replicates the object
// with the highest replication benefit per storage unit (eq. 5), updating
// the nearest-replica tables after every placement.
//
// The pruning rule relies on a monotonicity property of the benefit value:
// as replicas are added elsewhere, a site's nearest-replica distances only
// shrink and its free capacity only shrinks, so once an object's benefit is
// non-positive — or the object no longer fits — it can be removed from the
// site's candidate list permanently.
package sra

import (
	"time"

	"drp/internal/core"
	"drp/internal/solver"
	"drp/internal/xrand"
)

// Options tunes the site-visit order. The paper's SRA picks sites
// round-robin; the GRA seeds its population with SRA runs that pick sites
// uniformly at random for diversity.
type Options struct {
	// RNG, when non-nil, picks the next site uniformly from the remaining
	// candidates instead of round-robin.
	RNG *xrand.Source
	// Run carries the anytime controls (context, deadline, budget,
	// observer). SRA's budget unit is benefit scans — the greedy never
	// builds full cost evaluations — and interruption is checked at
	// site-visit boundaries; the zero value runs open-loop.
	Run solver.Run
}

// Result carries the scheme SRA produced plus run accounting.
type Result struct {
	Scheme *core.Scheme
	// Placements is the number of replicas created beyond the primaries.
	Placements int
	// Scans counts benefit evaluations, the algorithm's unit of work
	// (mirrors Stats.Evaluations).
	Scans int
	// Elapsed is the wall-clock duration of the run (mirrors
	// Stats.Elapsed).
	Elapsed time.Duration
	// Stats is the solver-runtime accounting: Evaluations counts benefit
	// scans, Iterations counts site visits, and Stopped tells whether the
	// greedy ran to exhaustion or was interrupted. An interrupted run still
	// returns a valid scheme — every placement is applied incrementally.
	Stats solver.Stats
}

// Run executes SRA on p and returns the resulting scheme. Interruption via
// opts.Run is checked once per site visit, before the visit draws any
// randomness, so an uninterrupted run is bit-identical to one without
// controls.
func Run(p *core.Problem, opts Options) *Result {
	c := solver.Start("sra", opts.Run)
	scheme := core.NewScheme(p)
	nearest := core.NewNearestTable(scheme)

	m, n := p.Sites(), p.Objects()

	// candidates[i] is L(i): objects that may still be worth replicating at
	// site i. Objects already present (primaries) are excluded up front.
	candidates := make([][]int, m)
	for i := 0; i < m; i++ {
		list := make([]int, 0, n)
		for k := 0; k < n; k++ {
			if p.Primary(k) != i {
				list = append(list, k)
			}
		}
		candidates[i] = list
	}
	// active is LS: sites with a non-empty candidate list.
	active := make([]int, 0, m)
	for i := 0; i < m; i++ {
		if len(candidates[i]) > 0 {
			active = append(active, i)
		}
	}

	res := &Result{}
	stop := solver.StopCompleted
	visits := 0
	cursor := 0
	for len(active) > 0 {
		if reason, halt := c.Check(); halt {
			stop = reason
			break
		}
		idx := cursor % len(active)
		if opts.RNG != nil {
			idx = opts.RNG.Intn(len(active))
		}
		site := active[idx]

		before := res.Scans
		bestObj, _ := scanSite(p, scheme, nearest, candidates, site, res)
		c.Charge(res.Scans - before)
		visits++

		if bestObj >= 0 {
			// Replicate the winner and prune it from this site's list.
			if err := scheme.Add(site, bestObj); err != nil {
				// scanSite only nominates objects that fit, so this is a
				// programming error worth surfacing loudly.
				panic("sra: placement rejected: " + err.Error())
			}
			nearest.Add(site, bestObj)
			removeCandidate(candidates, site, bestObj)
			res.Placements++
		}

		if len(candidates[site]) == 0 {
			active[idx] = active[len(active)-1]
			active = active[:len(active)-1]
			// Round-robin continues from the same position, which now holds
			// the next site.
		} else if opts.RNG == nil {
			cursor = idx + 1
		}
		c.Observe(visits, 0, 0, 0)
	}

	res.Scheme = scheme
	res.Stats = c.Finish(visits, stop)
	res.Elapsed = res.Stats.Elapsed
	return res
}

// scanSite computes B_k(site) for every candidate, pruning dead entries
// (non-positive benefit or no longer fitting), and returns the best
// strictly-positive-benefit object that fits, or -1.
func scanSite(p *core.Problem, scheme *core.Scheme, nearest *core.NearestTable, candidates [][]int, site int, res *Result) (int, float64) {
	list := candidates[site]
	free := scheme.Free(site)
	bestObj := -1
	bestBenefit := 0.0
	w := 0
	for _, k := range list {
		res.Scans++
		fits := p.Size(k) <= free
		benefit := p.Benefit(site, k, nearest.Dist(site, k))
		if benefit <= 0 || !fits {
			// Benefits only decrease and free capacity only shrinks as the
			// run progresses, so this entry can never become viable: drop it.
			continue
		}
		list[w] = k
		w++
		if benefit > bestBenefit {
			bestBenefit = benefit
			bestObj = k
		}
	}
	candidates[site] = list[:w]
	return bestObj, bestBenefit
}

func removeCandidate(candidates [][]int, site, obj int) {
	list := candidates[site]
	for i, k := range list {
		if k == obj {
			list[i] = list[len(list)-1]
			candidates[site] = list[:len(list)-1]
			return
		}
	}
}
