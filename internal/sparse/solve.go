package sparse

import (
	"fmt"
	"math/bits"
	"slices"

	"drp/internal/parallel"
	"drp/internal/solver"
)

// This file implements the sharded greedy solver over the sparse
// representation. Objects couple only through per-site capacity, so the
// search splits into two phases:
//
//  1. Propose — every object is searched independently: a greedy descent
//     over its pruned candidate sites (the set bits of its bitmask, in
//     ascending site order), each step adding the replica with the most
//     negative exact cost delta (computed from cached per-reader
//     nearest-replica distances in O(|cand|·|readers|) per step). Objects
//     fan out across shard workers via parallel.ForWorker; proposals are
//     pure functions of the object written into fixed-size, index-addressed
//     slots, so the shard count only groups work and never changes any
//     result, and no step allocates.
//
//  2. Merge — a single deterministic capacity-ledger pass reconciles the
//     proposals: all first steps enter a typed max-heap ordered by benefit
//     density (saving per storage unit, then absolute saving, then object
//     index — a total order), and steps are applied best-first while
//     capacity admits them. The first rejected step of an object truncates
//     the object's remaining steps, because each later delta was computed
//     assuming the earlier replicas exist; truncation keeps the running
//     cost exact (start cost plus applied deltas, verified against a full
//     re-evaluation in tests).
//
// Both phases honour the anytime runtime: proposals check the controller
// per object, the merge at fixed step intervals, and every greedy step
// charges the evaluation meter — so budgets, deadlines and observers work
// exactly as they do for the dense solvers.

// DefaultMaxReplicas caps the greedy descent per object at this many
// replicas, primary included. Unlimited descent on a million-object
// instance multiplies work by the replica count for near-zero marginal
// saving; 8 replicas on ~100 sites matches the paper's observed replica
// degrees.
const DefaultMaxReplicas = 8

// SolveParams configures the sharded solve.
type SolveParams struct {
	// Shards is the worker count for the proposal fan-out: 0 means
	// GOMAXPROCS, 1 is serial. Results are bit-identical at any value.
	Shards int
}

// Result is a sharded solve's outcome.
type Result struct {
	// Assignment is the final replica placement (primary-valid, within
	// capacity).
	Assignment *Assignment
	// Cost is the exact eq. 4 NTC of Assignment, maintained incrementally
	// and equal to a full re-evaluation.
	Cost int64
	// Savings is the paper's 100·(D′−D)/D′ quality metric.
	Savings float64
	// Proposed and Applied count greedy steps before and after the
	// capacity-ledger merge; Truncated counts steps dropped because a site
	// filled up (including steps invalidated by an earlier rejection).
	Proposed, Applied, Truncated int
	// Stats is the anytime runtime's uniform accounting.
	Stats solver.Stats
}

// proposal is one object's greedy descent: the first n slots hold the sites
// to add in order, with the exact cost delta of each step given the
// previous steps applied.
type proposal struct {
	n      int
	sites  [DefaultMaxReplicas - 1]int32
	deltas [DefaultMaxReplicas - 1]int64
}

// Solve runs the sharded greedy from the primaries-only allocation.
func Solve(mo *Model, params SolveParams, run solver.Run) (*Result, error) {
	c := solver.Start("sparse", run)
	a := NewAssignment(mo)
	props := make([]proposal, mo.n)
	objects := make([]int, mo.n)
	for k := range objects {
		objects[k] = k
	}
	propose(mo, objects, props, params, c)
	c.Observe(0, 0, 0, mo.dPrime)
	res := merge(mo, a, mo.dPrime, objects, props, c)
	return res, nil
}

// Adapt re-optimises only the changed objects of an existing assignment:
// their replicas (beyond the primary) are stripped, fresh proposals are
// computed against the residual capacity ledger, and the merge reconciles
// them. Untouched objects keep their placement bit-identically. The
// assignment is mutated in place and returned in the result.
func Adapt(mo *Model, a *Assignment, changed []int, params SolveParams, run solver.Run) (*Result, error) {
	c := solver.Start("sparse", run)
	seen := make(map[int]bool, len(changed))
	objects := make([]int, 0, len(changed))
	for _, k := range changed {
		if k < 0 || k >= mo.n {
			return nil, fmt.Errorf("sparse: changed object %d out of range [0,%d)", k, mo.n)
		}
		if !seen[k] {
			seen[k] = true
			objects = append(objects, k)
		}
	}
	// Start cost: V_k of every object in parallel, written by index so the
	// sum is the same at any shard count; one full-assignment evaluation.
	ev := NewEvaluator(mo)
	costs := make([]int64, mo.n)
	parallel.For(mo.n, parallel.Workers(params.Shards), func(k int) { costs[k] = ev.objectCost(k, a.repl[k]) })
	c.Charge(1)
	var cost int64
	for _, v := range costs {
		cost += v
	}
	// Strip the changed objects to primary-only; the cost moves to their
	// V′_k and the ledger releases their storage.
	ev.SetMeter(c.Meter())
	for _, k := range objects {
		cost += mo.vPrime[k] - ev.ObjectCost(k, a.repl[k])
		// Back to front: a removal shifts only the entries after it.
		repl := a.repl[k]
		for idx := len(repl) - 1; idx >= 0; idx-- {
			if i := repl[idx]; i != mo.primary[k] {
				if err := a.Remove(int(i), k); err != nil {
					return nil, err
				}
			}
		}
	}
	props := make([]proposal, len(objects))
	propose(mo, objects, props, params, c)
	c.Observe(0, 0, 0, cost)
	res := merge(mo, a, cost, objects, props, c)
	return res, nil
}

// propose computes the greedy descent of every listed object into
// props[idx] (parallel, index-addressed, RNG-free). Capacity is not
// consulted here — proposals are optimistic and the merge settles them
// against the shared ledger — so a proposal is a pure function of its
// object and the shard count cannot influence it.
func propose(mo *Model, objects []int, props []proposal, params SolveParams, c *solver.Controller) {
	workers := parallel.Workers(params.Shards)
	type scratch struct {
		dmin []int64  // per-reader nearest-replica distance
		left []uint64 // candidate bitmask minus the sites already placed
	}
	scratches := make([]scratch, workers)
	for w := range scratches {
		scratches[w].left = lineWords(mo.candWords)
	}
	parallel.ForWorker(len(objects), workers, func(w, idx int) {
		if _, stop := c.Check(); stop {
			return // remaining objects keep empty proposals
		}
		sc := &scratches[w]
		k := objects[idx]
		sp := int(mo.primary[k])
		left := sc.left
		copy(left, mo.candidateMask(k))
		left[sp>>6] &^= 1 << (sp & 63)
		if !slices.ContainsFunc(left, func(word uint64) bool { return word != 0 }) {
			c.Charge(1)
			return // only the primary: nothing to propose
		}
		ok := mo.size[k]
		wTot := mo.totalWrites[k]
		spRow := mo.dist.Row(sp)
		rs, rc := mo.ReadEntries(k)
		ws, wc := mo.WriteEntries(k)
		if cap(sc.dmin) < len(rs) {
			sc.dmin = make([]int64, len(rs))
		}
		dmin := sc.dmin[:len(rs)]
		for j, site := range rs {
			dmin[j] = spRow[site]
		}
		var p proposal
		rounds := 1
		for p.n < len(p.sites) {
			best := int32(-1)
			var bestDelta int64
			for wi, word := range left {
				for ; word != 0; word &= word - 1 {
					x := int32(wi<<6 | bits.TrailingZeros64(word))
					row := mo.dist.Row(int(x))
					// Fan-in the new replica starts paying, minus the write
					// shipping and read traffic site x stops paying, minus the
					// read-distance drops of the other non-replicator readers.
					delta := wTot * ok * spRow[x]
					for j, site := range rs {
						if site == x {
							delta -= rc[j] * ok * dmin[j]
							continue
						}
						if drop := dmin[j] - row[site]; drop > 0 {
							// Readers that are replicators have dmin 0, so they
							// never contribute here.
							delta -= rc[j] * ok * drop
						}
					}
					for j, site := range ws {
						if site == x {
							delta -= wc[j] * ok * spRow[x]
							break // sites are unique within the CSR row
						}
					}
					// Bits come out ascending, so strict < keeps ties at the
					// lowest site.
					if best < 0 || delta < bestDelta {
						best, bestDelta = x, delta
					}
				}
			}
			rounds++
			if best < 0 || bestDelta >= 0 {
				break
			}
			left[best>>6] &^= 1 << (best & 63)
			row := mo.dist.Row(int(best))
			for j, site := range rs {
				if d := row[site]; d < dmin[j] {
					dmin[j] = d
				}
			}
			p.sites[p.n], p.deltas[p.n] = best, bestDelta
			p.n++
		}
		props[idx] = p
		// One charge per greedy scan round — the sparse analogue of a
		// cost-model evaluation, so budgets bite proportionally.
		c.Charge(rounds)
	})
}

// ledgerEntry is one pending merge step: objects[obj]'s step-th greedy add.
type ledgerEntry struct {
	obj     int // index into the objects/props slices
	step    int
	density float64 // saving per storage unit of this step
	benefit int64   // −delta
}

// ledgerHeap is the merge's max-heap of pending steps under before.
type ledgerHeap []ledgerEntry

// before is the merge order: higher benefit density first, then higher
// absolute benefit, then lower object index — a total order, since an
// object has at most one pending step, so the pop sequence is fixed.
func before(a, b *ledgerEntry) bool {
	if a.density != b.density {
		return a.density > b.density
	}
	if a.benefit != b.benefit {
		return a.benefit > b.benefit
	}
	return a.obj < b.obj
}

func (h *ledgerHeap) push(e ledgerEntry) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

func (h *ledgerHeap) pop() ledgerEntry {
	old := *h
	top, last := old[0], len(old)-1
	old[0] = old[last]
	*h = old[:last]
	h.down(0)
	return top
}

func (h ledgerHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !before(&h[i], &h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h ledgerHeap) down(i int) {
	for {
		child := 2*i + 1
		if child >= len(h) {
			return
		}
		if right := child + 1; right < len(h) && before(&h[right], &h[child]) {
			child = right
		}
		if !before(&h[child], &h[i]) {
			return
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
}

const (
	mergeCheckEvery   = 4096
	mergeObserveEvery = 65536
)

// merge applies the proposals best-density-first against the shared
// capacity ledger. startCost must be the exact cost of a as passed in; the
// returned cost is startCost plus every applied delta.
func merge(mo *Model, a *Assignment, startCost int64, objects []int, props []proposal, c *solver.Controller) *Result {
	res := &Result{Assignment: a}
	cost := startCost
	h := make(ledgerHeap, 0, len(props))
	for idx := range props {
		res.Proposed += props[idx].n
		if props[idx].n > 0 {
			h = append(h, entryFor(mo, objects, props, idx, 0))
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	// Sample the controller once up front: a run interrupted during the
	// propose phase (which leaves later objects with empty proposals) must
	// report its stop reason even when nothing reaches the heap.
	stopped, _ := c.Check()
	steps := 0
	for stopped == solver.StopCompleted && len(h) > 0 {
		if steps%mergeCheckEvery == 0 {
			if reason, stop := c.Check(); stop {
				stopped = reason
				break
			}
		}
		e := h.pop()
		k := objects[e.obj]
		p := &props[e.obj]
		site := int(p.sites[e.step])
		if err := a.Add(site, k); err != nil {
			// Capacity: this and every later step of the object assumed the
			// add succeeded, so the whole tail is invalid.
			res.Truncated += p.n - e.step
			continue
		}
		cost += -e.benefit
		res.Applied++
		steps++
		if e.step+1 < p.n {
			h.push(entryFor(mo, objects, props, e.obj, e.step+1))
		}
		if steps%mergeObserveEvery == 0 {
			c.Observe(steps, 0, 0, cost)
		}
	}
	if stopped.Interrupted() {
		// Anything left pending stays unapplied; the assignment and cost
		// remain exact for what was applied.
		for _, e := range h {
			res.Truncated += props[e.obj].n - e.step
		}
	}
	res.Cost = cost
	res.Savings = mo.Savings(cost)
	res.Stats = c.Finish(res.Applied, stopped)
	c.Observe(res.Applied, 0, 0, cost)
	return res
}

func entryFor(mo *Model, objects []int, props []proposal, idx, step int) ledgerEntry {
	k := objects[idx]
	benefit := -props[idx].deltas[step]
	return ledgerEntry{
		obj:     idx,
		step:    step,
		density: float64(benefit) / float64(mo.size[k]),
		benefit: benefit,
	}
}
