package sparse

import (
	"cmp"
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
//     nearest-replica distances in O(|cand|·|readers|) per step). Within
//     one descent the nearest-replica distances only fall, so a
//     candidate's delta only rises: a candidate whose delta is already
//     non-negative can never win a later step and leaves the scan. Objects
//     fan out across shard workers via parallel.ForWorker; proposals are
//     pure functions of the object written into fixed-size, index-addressed
//     slots, so in an uninterrupted run the shard count only groups work
//     and never changes any result, and no step allocates.
//
//  2. Merge — a single deterministic capacity-ledger pass reconciles the
//     proposals: every proposed step is sorted by benefit density (saving
//     per storage unit, then absolute saving, then object index, then step
//     — a total order), and steps are applied best-first while capacity
//     admits them. Rising deltas make each object's steps already sorted,
//     so one sort yields exactly the order a best-first merge of the
//     per-object lists would. The first rejected step of an object
//     truncates the object's remaining steps, because each later delta was
//     computed assuming the earlier replicas exist; truncation keeps the
//     running cost exact (start cost plus applied deltas, verified against
//     a full re-evaluation in tests).
//
// Both phases honour the anytime runtime: proposals check the controller
// per object, the merge at fixed step intervals, and every greedy step
// charges the evaluation meter — so budgets, deadlines and observers work
// exactly as they do for the dense solvers. An interrupted run keeps the
// proposals finished before the stop, and which ones those are depends on
// the shard count.

// DefaultMaxReplicas caps the greedy descent per object at this many
// replicas, primary included. Unlimited descent on a million-object
// instance multiplies work by the replica count for near-zero marginal
// saving; 8 replicas on ~100 sites matches the paper's observed replica
// degrees.
const DefaultMaxReplicas = 8

// SolveParams configures the sharded solve.
type SolveParams struct {
	// Shards is the worker count for the proposal fan-out: 0 means
	// GOMAXPROCS, 1 is serial. Uninterrupted runs are bit-identical at
	// any value.
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
	props := make([]proposal, mo.n)
	objects := make([]int, mo.n)
	for k := range objects {
		objects[k] = k
	}
	propose(mo, objects, props, params, c)
	a := newAssignment(mo, func(k int) int { return props[k].n })
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
		wAt  []int64  // the object's write count per site, zero elsewhere
		left []uint64 // candidate bitmask minus the sites placed or out of the running
	}
	scratches := make([]scratch, workers)
	for w := range scratches {
		scratches[w] = scratch{dmin: make([]int64, mo.m), wAt: make([]int64, mo.m), left: lineWords(mo.candWords)}
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
		dmin := sc.dmin[:len(rs)]
		for j, site := range rs {
			dmin[j] = spRow[site]
		}
		for j, site := range ws {
			sc.wAt[site] = wc[j]
		}
		var p proposal
		rounds := 1
		for p.n < len(p.sites) {
			best, bestDelta := int32(-1), int64(0)
			for wi, word := range left {
				for ; word != 0; word &= word - 1 {
					b := bits.TrailingZeros64(word)
					x := wi<<6 | b
					row := mo.dist.Row(x)
					// δ(x)/o_k is the fan-in a replica at x starts paying minus
					// what it saves: x's own write shipping and every reader's
					// drop to C(x,·). C(x,x) = 0 (NewModel validates the
					// matrix), so x's own reads drop by all of dmin, and a
					// replicator reader, whose dmin is 0, drops by nothing.
					gain := sc.wAt[x] * spRow[x]
					for j, site := range rs {
						gain += rc[j] * max(dmin[j]-row[site], 0)
					}
					delta := ok * (wTot*spRow[x] - gain)
					if delta >= 0 {
						// dmin only falls, so δ(x) only rises: x can never
						// win a later round of this descent.
						left[wi] &^= 1 << b
					} else if delta < bestDelta {
						// Bits come out ascending, so strict < keeps ties at
						// the lowest site.
						best, bestDelta = int32(x), delta
					}
				}
			}
			rounds++
			if best < 0 {
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
		for _, site := range ws {
			sc.wAt[site] = 0
		}
		props[idx] = p
		// One charge per greedy scan round — the sparse analogue of a
		// cost-model evaluation, so budgets bite proportionally.
		c.Charge(rounds)
	})
}

// ledgerEntry is one proposed step: objects[obj]'s step-th greedy add. It
// is 16 bytes; the benefit that breaks a density tie is read from props.
type ledgerEntry struct {
	density   float64 // saving per storage unit of this step
	obj, step int32   // obj indexes the objects/props slices
}

const (
	mergeCheckEvery   = 4096
	mergeObserveEvery = 65536
)

// merge applies the proposals best-density-first against the shared
// capacity ledger, truncating props[obj].n at an object's first rejected
// step. startCost must be the exact cost of a as passed in; the returned
// cost is startCost plus every applied delta.
func merge(mo *Model, a *Assignment, startCost int64, objects []int, props []proposal, c *solver.Controller) *Result {
	res := &Result{Assignment: a}
	cost := startCost
	for idx := range props {
		res.Proposed += props[idx].n
	}
	steps := make([]ledgerEntry, 0, res.Proposed)
	for idx := range props {
		p := &props[idx]
		size := float64(mo.size[objects[idx]])
		for s := range p.n {
			steps = append(steps, ledgerEntry{float64(-p.deltas[s]) / size, int32(idx), int32(s)})
		}
	}
	// Higher density first, then higher benefit (lower delta), then lower
	// object index, then earlier step: a total order. An object's deltas
	// never fall, so its steps already come in step order, and this is the
	// order a best-first merge of the per-object lists would pop.
	slices.SortFunc(steps, func(x, y ledgerEntry) int {
		if x.density != y.density {
			return cmp.Compare(y.density, x.density)
		}
		if dx, dy := props[x.obj].deltas[x.step], props[y.obj].deltas[y.step]; dx != dy {
			return cmp.Compare(dx, dy)
		}
		return cmp.Or(cmp.Compare(x.obj, y.obj), cmp.Compare(x.step, y.step))
	})
	// Sample the controller once up front: a run interrupted during the
	// propose phase (which leaves later objects with empty proposals) must
	// report its stop reason even when no step is applied.
	stopped, _ := c.Check()
	next := 0
	for ; stopped == solver.StopCompleted && next < len(steps); next++ {
		e := steps[next]
		p := &props[e.obj]
		if int(e.step) >= p.n {
			continue // behind the object's rejected step
		}
		if res.Applied%mergeCheckEvery == 0 {
			if reason, stop := c.Check(); stop {
				stopped = reason
				break
			}
		}
		if err := a.Add(int(p.sites[e.step]), objects[e.obj]); err != nil {
			// Capacity: this and every later step of the object assumed the
			// add succeeded, so the whole tail is invalid.
			res.Truncated += p.n - int(e.step)
			p.n = int(e.step)
			continue
		}
		cost += p.deltas[e.step]
		res.Applied++
		if res.Applied%mergeObserveEvery == 0 {
			c.Observe(res.Applied, 0, 0, cost)
		}
	}
	if stopped.Interrupted() {
		// Anything left pending stays unapplied; the assignment and cost
		// remain exact for what was applied.
		for _, e := range steps[next:] {
			if int(e.step) < props[e.obj].n {
				res.Truncated++
			}
		}
	}
	res.Cost = cost
	res.Savings = mo.Savings(cost)
	res.Stats = c.Finish(res.Applied, stopped)
	c.Observe(res.Applied, 0, 0, cost)
	return res
}
