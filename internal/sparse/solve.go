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
//     negative exact cost delta. The first round (firstRound) prices every
//     site against every reader, reader by reader along contiguous distance
//     rows, and is the pruning itself; after that each add moves only the
//     gains of the readers it brings closer, so a later round prices a
//     candidate in O(1). Within one descent the nearest-replica distances
//     only fall, so a candidate's delta only rises: a candidate whose delta
//     is already non-negative can never win a later step and leaves the
//     scan. Objects fan out across GOMAXPROCS workers via
//     parallel.ForWorker; proposals are pure functions of the object
//     written into fixed-size, index-addressed slots, so in an
//     uninterrupted run the worker count only groups work and never
//     changes any result, and no step allocates.
//
//  2. Merge — a single deterministic capacity-ledger pass reconciles the
//     proposals: every proposed step becomes a self-contained ledger entry
//     (object, site, and its exact integer saving per storage unit), the
//     entries are ordered by saving per unit, then size, then object
//     position, then step — a total order, reached by two stable radix
//     passes over a list built in (object, step) order — and steps are
//     applied best-first while capacity admits them. Rising deltas make
//     each object's steps already sorted, so this is exactly the order a
//     best-first merge of the per-object lists would pop. The first
//     rejected step of an object kills the object's remaining steps,
//     because each later delta was computed assuming the earlier replicas
//     exist; the running cost stays exact (start cost plus applied deltas,
//     verified against a full re-evaluation in tests).
//
// Both phases honour the anytime runtime: proposals check the controller
// per object, the merge at fixed step intervals, and every greedy step
// charges the evaluation meter — so budgets, deadlines and observers work
// exactly as they do for the dense solvers. An interrupted run keeps the
// proposals finished before the stop, and which ones those are depends on
// the worker count.

// defaultMaxReplicas caps the greedy descent per object at this many
// replicas, primary included. Unlimited descent on a million-object
// instance multiplies work by the replica count for near-zero marginal
// saving; 8 replicas on ~100 sites matches the paper's observed replica
// degrees.
const defaultMaxReplicas = 8

// SolveParams configures the sharded solve. It has no fields: the proposal
// fan-out runs on GOMAXPROCS workers, and an uninterrupted run is
// bit-identical at any setting.
type SolveParams struct{}

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
	sites  [defaultMaxReplicas - 1]int32
	deltas [defaultMaxReplicas - 1]int64
}

// Solve runs the sharded greedy from the primaries-only allocation.
func Solve(mo *Model, _ SolveParams, run solver.Run) (*Result, error) {
	c := solver.Start("sparse", run)
	props := make([]proposal, mo.n)
	objects := make([]int, mo.n)
	for k := range objects {
		objects[k] = k
	}
	propose(mo, objects, props, c)
	a := newAssignment(mo, func(k int) int { return props[k].n })
	steps := ledger(mo, objects, props)
	c.Observe(0, 0, 0, mo.dPrime)
	return merge(mo, a, mo.dPrime, objects, steps, c), nil
}

// Adapt re-optimises only the changed objects of an existing assignment:
// their replicas (beyond the primary) are stripped, fresh proposals are
// computed against the residual capacity ledger, and the merge reconciles
// them. Only the placements of objects not listed in changed are kept,
// bit-identically. Result.Cost is exact — the eq. 4 cost of the returned
// assignment under mo — for any changed, repeats included. a must belong
// to mo: an assignment of another model, even a same-shaped one, is
// refused and must first be rebound (NewAssignment(mo), then one Add per
// non-primary replica). a is mutated in place and returned in the result.
func Adapt(mo *Model, a *Assignment, changed []int, _ SolveParams, run solver.Run) (*Result, error) {
	return NewEvaluator(mo).adapt(a, changed, run)
}

// adapt is Adapt with the evaluator that prices the start cost, so tests
// can read how many V_k it priced.
func (e *Evaluator) adapt(a *Assignment, changed []int, run solver.Run) (*Result, error) {
	mo := e.mo
	if a.mo != mo {
		return nil, fmt.Errorf("sparse: adapt: the assignment belongs to another model (%d objects); rebind its replicas onto this one first", a.mo.n)
	}
	c := solver.Start("sparse", run)
	// strip marks the changed objects; it also drops repeats from changed,
	// keeping first-seen order.
	strip := make([]bool, mo.n)
	objects := make([]int, 0, len(changed))
	for _, k := range changed {
		if k < 0 || k >= mo.n {
			return nil, fmt.Errorf("sparse: changed object %d out of range [0,%d)", k, mo.n)
		}
		if !strip[k] {
			strip[k] = true
			objects = append(objects, k)
		}
	}
	// One pass over every object, in fixed chunks summed into
	// index-addressed slots so the total is the same at any worker count.
	// An unchanged object adds its V_k. A changed one adds V′_k and is
	// stripped to primary-only by truncation — its list keeps its room for
	// the merge — with the storage it releases tallied per chunk, as
	// workers must not share the ledger. The sum is then exactly the cost
	// of the stripped assignment.
	sums := make([]int64, (mo.n+objectChunk-1)/objectChunk)
	released := make([]int64, len(sums)*mo.m)
	parallel.For(len(sums), parallel.Workers(0), func(ch int) {
		lo, hi := ch*objectChunk, min((ch+1)*objectChunk, mo.n)
		free := released[ch*mo.m : (ch+1)*mo.m]
		var sum int64
		priced := hi - lo
		for k := lo; k < hi; k++ {
			if !strip[k] {
				sum += e.objectCost(k, a.repl[k])
				continue
			}
			sum += mo.vPrime[k]
			priced--
			sp := mo.primary[k]
			for _, i := range a.repl[k] {
				if i != sp {
					free[i] += mo.size[k]
				}
			}
			a.repl[k] = append(a.repl[k][:0], sp)
		}
		sums[ch] = sum
		e.priced.Add(int64(priced))
	})
	var cost int64
	for ch, sum := range sums {
		cost += sum
		for i, units := range released[ch*mo.m : (ch+1)*mo.m] {
			a.used[i] -= units
		}
	}
	// One evaluation for the pass and one per changed object, whose V′_k
	// the pass read.
	c.Charge(1 + len(objects))
	props := make([]proposal, len(objects))
	propose(mo, objects, props, c)
	steps := ledger(mo, objects, props)
	c.Observe(0, 0, 0, cost)
	return merge(mo, a, cost, objects, steps, c), nil
}

// objectChunk is how many consecutive objects one task of Adapt's start
// pass takes: an object takes well under a microsecond, so one task per
// object would spend the pass on handing out indices.
const objectChunk = 4096

// lineWords returns n zeroed words of per-worker scratch whose backing
// array fills whole 64-byte cache lines. Workers write these words per
// site; an 8-byte allocation would share a line with another worker's
// and every bit set would bounce it between cores.
func lineWords(n int) []uint64 { return make([]uint64, n, (n+7)&^7) }

// scratch is one worker's buffers for firstRound and the descent after it.
type scratch struct {
	dmin []int64  // per-reader nearest-replica distance
	gain []int64  // per site: δ's saving term, kept current for the candidates
	left []uint64 // candidate bitmask minus the sites placed or out of the running
}

// newScratches returns one scratch per worker, sized for mo.
func newScratches(mo *Model, workers int) []scratch {
	scratches := make([]scratch, workers)
	for w := range scratches {
		scratches[w] = scratch{dmin: make([]int64, mo.m), gain: make([]int64, mo.m), left: lineWords(mo.candWords)}
	}
	return scratches
}

// propose computes the greedy descent of every listed object into
// props[idx] (parallel, index-addressed, RNG-free). Capacity is not
// consulted here — proposals are optimistic and the merge settles them
// against the shared ledger — so a proposal is a pure function of its
// object and the worker count cannot influence it.
func propose(mo *Model, objects []int, props []proposal, c *solver.Controller) {
	workers := parallel.Workers(0)
	scratches := newScratches(mo, workers)
	parallel.ForWorker(len(objects), workers, func(w, idx int) {
		if _, stop := c.Check(); stop {
			return // remaining objects keep empty proposals
		}
		sc := &scratches[w]
		k := objects[idx]
		// δ(x) = o_k·(Wtot·C(x,SP) − gain[x]): the fan-in a replica at x
		// starts paying minus what it saves, x's own write shipping and
		// every reader's drop to C(x,·). C(x,x) = 0 (newModel validates the
		// matrix), so x's own reads drop by all of dmin, and a replicator
		// reader, whose dmin is 0, drops by nothing.
		mo.firstRound(k, sc.dmin, sc.gain, sc.left)
		left, gain := sc.left, sc.gain
		if !slices.ContainsFunc(left, func(word uint64) bool { return word != 0 }) {
			c.Charge(1)
			return // only the primary: nothing to propose
		}
		ok := mo.size[k]
		wTot := mo.totalWrites[k]
		spRow := mo.dist.Row(int(mo.primary[k]))
		rs, rc := mo.readEntries(k)
		dmin := sc.dmin[:len(rs)]
		var p proposal
		rounds := 1
		for {
			best, bestDelta := int32(-1), int64(0)
			for wi, word := range left {
				for ; word != 0; word &= word - 1 {
					b := bits.TrailingZeros64(word)
					x := wi<<6 | b
					delta := ok * (wTot*spRow[x] - gain[x])
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
			p.sites[p.n], p.deltas[p.n] = best, bestDelta
			p.n++
			if p.n == len(p.sites) {
				break
			}
			// Each reader the new replica brings closer, from old to nd,
			// saves less at every remaining x. C is symmetric, so C(x,s_j)
			// is row s_j at x.
			row := mo.dist.Row(int(best))
			for j, site := range rs {
				old, nd := dmin[j], row[site]
				if nd >= old {
					continue
				}
				dmin[j] = nd
				col := mo.dist.Row(int(site))
				for wi, word := range left {
					for ; word != 0; word &= word - 1 {
						x := wi<<6 | bits.TrailingZeros64(word)
						gain[x] -= rc[j] * (max(old-col[x], 0) - max(nd-col[x], 0))
					}
				}
			}
		}
		props[idx] = p
		// One charge per greedy scan round — the sparse analogue of a
		// cost-model evaluation, so budgets bite proportionally.
		c.Charge(rounds)
	})
}

// ledgerEntry is one proposed step, self-contained: add a replica of
// object obj at site. saving is the step's cost reduction per storage
// unit, −δ/o_k, and exact: every eq. 4 term of δ carries o_k.
type ledgerEntry struct {
	saving    int64
	obj, site int32
}

// ledger lists every proposed step in (position in objects, step) order,
// the order the merge's stable sort keeps among equal keys.
func ledger(mo *Model, objects []int, props []proposal) []ledgerEntry {
	n := 0
	for idx := range props {
		n += props[idx].n
	}
	steps := make([]ledgerEntry, 0, n)
	for idx := range props {
		p := &props[idx]
		k := objects[idx]
		for s := range p.n {
			steps = append(steps, ledgerEntry{-p.deltas[s] / mo.size[k], int32(k), p.sites[s]})
		}
	}
	return steps
}

// radixBits is the digit width of the ledger sort: six 11-bit digits cover
// a uint64 key, and one digit's 2 048 counters fit in L1.
const (
	radixBits   = 11
	radixDigits = (64 + radixBits - 1) / radixBits
	radixMask   = 1<<radixBits - 1
)

// sortLedger stably sorts src ascending by key with one counting pass per
// digit, least significant first, skipping every digit all keys share.
// spare must be as long as src; the sorted entries come back in one of the
// two buffers and the other is returned as spare.
func sortLedger(src, spare []ledgerEntry, key func(*ledgerEntry) uint64) ([]ledgerEntry, []ledgerEntry) {
	if len(src) == 0 {
		return src, spare
	}
	var counts [radixDigits][1 << radixBits]int
	for i := range src {
		v := key(&src[i])
		for d := range counts {
			counts[d][v>>(d*radixBits)&radixMask]++
		}
	}
	first := key(&src[0])
	for d := range counts {
		shift := d * radixBits
		count := &counts[d]
		if count[first>>shift&radixMask] == len(src) {
			continue
		}
		next := 0
		for b, n := range count {
			count[b], next = next, next+n
		}
		for i := range src {
			b := key(&src[i]) >> shift & radixMask
			spare[count[b]] = src[i]
			count[b]++
		}
		src, spare = spare, src
	}
	return src, spare
}

const (
	mergeCheckEvery   = 4096
	mergeObserveEvery = 65536
)

// merge applies the ledger's steps best-density-first against the shared
// capacity ledger; an object's first rejected step kills its later ones.
// steps must come from ledger; objects lists the proposing objects, whose
// replica lists the merge appends to and sorts once at the end. startCost
// must be the exact cost of a as passed in; the returned cost is startCost
// plus every applied delta.
func merge(mo *Model, a *Assignment, startCost int64, objects []int, steps []ledgerEntry, c *solver.Controller) *Result {
	res := &Result{Assignment: a, Proposed: len(steps)}
	cost := startCost
	// Higher saving per unit first, then larger object (higher benefit),
	// then the ledger's (object position, step) order: a total order. An
	// object's deltas never fall, so its steps stay in step order, and this
	// is the order a best-first merge of the per-object lists would pop.
	steps, spare := sortLedger(steps, make([]ledgerEntry, len(steps)), func(e *ledgerEntry) uint64 { return ^uint64(mo.size[e.obj]) })
	steps, _ = sortLedger(steps, spare, func(e *ledgerEntry) uint64 { return ^uint64(e.saving) })
	dead := make([]bool, mo.n)
	// Sample the controller once up front: a run interrupted during the
	// propose phase (which leaves later objects with empty proposals) must
	// report its stop reason even when no step is applied.
	stopped, _ := c.Check()
	for i := 0; stopped == solver.StopCompleted && i < len(steps); i++ {
		e := steps[i]
		if dead[e.obj] {
			continue // behind the object's rejected step
		}
		if res.Applied%mergeCheckEvery == 0 {
			if reason, stop := c.Check(); stop {
				stopped = reason
				break
			}
		}
		size := mo.size[e.obj]
		if a.free(int(e.site)) < size {
			// Capacity: this and every later step of the object assumed the
			// add succeeded, so the whole tail is invalid.
			dead[e.obj] = true
			continue
		}
		a.used[e.site] += size
		a.repl[e.obj] = append(a.repl[e.obj], e.site)
		cost -= e.saving * size
		res.Applied++
		if res.Applied%mergeObserveEvery == 0 {
			c.Observe(res.Applied, 0, 0, cost)
		}
	}
	for _, k := range objects {
		if repl := a.repl[k]; len(repl) > 1 {
			slices.Sort(repl)
		}
	}
	// Everything not applied was rejected, behind a rejection, or left
	// pending by an interrupt; the assignment and cost remain exact for
	// what was applied.
	res.Truncated = res.Proposed - res.Applied
	res.Cost = cost
	res.Savings = mo.Savings(cost)
	res.Stats = c.Finish(res.Applied, stopped)
	c.Observe(res.Applied, 0, 0, cost)
	return res
}
