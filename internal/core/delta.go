package core

// DeltaEvaluator maintains a scheme's cost incrementally: adding or
// removing one replica of object k only changes object k's share of D, so
// the exact new cost is computable in O(M·|R_k|) instead of re-evaluating
// the full O(M·Σ|R_k|) objective. Local-search baselines and what-if
// analyses use it; its results are asserted equal to the full evaluator in
// tests.
type DeltaEvaluator struct {
	p      *Problem
	scheme *Scheme
	ev     *Evaluator
	// objCost caches V_k per object; cost is their sum.
	objCost []int64
	cost    int64
	// scratch replicator buffer.
	repl []int32
}

// NewDeltaEvaluator wraps the scheme (not copied: mutations must go
// through the evaluator's Add/Remove so the cache stays consistent).
func NewDeltaEvaluator(s *Scheme) *DeltaEvaluator {
	d := &DeltaEvaluator{
		p:       s.p,
		scheme:  s,
		ev:      NewEvaluator(s.p),
		objCost: make([]int64, s.p.n),
	}
	for k := 0; k < s.p.n; k++ {
		d.objCost[k] = d.objectCost(k)
		d.cost += d.objCost[k]
	}
	return d
}

// Scheme returns the underlying scheme.
func (d *DeltaEvaluator) Scheme() *Scheme { return d.scheme }

// Cost returns the current exact NTC.
func (d *DeltaEvaluator) Cost() int64 { return d.cost }

// AddDelta returns the cost change of placing a replica of k at site i
// without applying it. Returns 0, false if the placement is invalid.
func (d *DeltaEvaluator) AddDelta(i, k int) (int64, bool) {
	if d.scheme.Has(i, k) || d.scheme.Free(i) < d.p.size[k] {
		return 0, false
	}
	after := d.objectCostWith(k, i, true)
	return after - d.objCost[k], true
}

// RemoveDelta returns the cost change of dropping the replica of k at site
// i without applying it. Returns 0, false if the removal is invalid.
func (d *DeltaEvaluator) RemoveDelta(i, k int) (int64, bool) {
	if !d.scheme.Has(i, k) || d.p.primary[k] == i {
		return 0, false
	}
	after := d.objectCostWith(k, i, false)
	return after - d.objCost[k], true
}

// Add applies the placement and updates the cached cost.
func (d *DeltaEvaluator) Add(i, k int) error {
	if err := d.scheme.Add(i, k); err != nil {
		return err
	}
	d.refresh(k)
	return nil
}

// Remove applies the removal and updates the cached cost.
func (d *DeltaEvaluator) Remove(i, k int) error {
	if err := d.scheme.Remove(i, k); err != nil {
		return err
	}
	d.refresh(k)
	return nil
}

func (d *DeltaEvaluator) refresh(k int) {
	next := d.objectCost(k)
	d.cost += next - d.objCost[k]
	d.objCost[k] = next
}

func (d *DeltaEvaluator) objectCost(k int) int64 {
	d.repl = d.scheme.appendReplicators(d.repl[:0], k)
	return d.ev.ObjectCost(k, d.repl)
}

// objectCostWith computes V_k as if the replica at site i were present
// (add=true) or absent (add=false), without mutating the scheme.
func (d *DeltaEvaluator) objectCostWith(k, i int, add bool) int64 {
	d.repl = d.repl[:0]
	for j := 0; j < d.p.m; j++ {
		has := d.scheme.Has(j, k)
		if j == i {
			has = add
		}
		if has {
			d.repl = append(d.repl, int32(j))
		}
	}
	return d.ev.ObjectCost(k, d.repl)
}
