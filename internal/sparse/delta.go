package sparse

// DeltaEvaluator maintains an assignment's cost incrementally, mirroring
// core.DeltaEvaluator: adding or removing one replica of object k only
// changes V_k, so the exact new cost is computable in O(|R_k| + nnz_k). The
// sparse-delta differential check holds its predictions equal to the dense
// delta evaluator's along mutation walks.
type DeltaEvaluator struct {
	p       *Assignment
	ev      *Evaluator
	objCost []int64
	cost    int64
	scratch []int32
}

// NewDeltaEvaluator wraps the assignment (not copied: mutations must go
// through Add/Remove so the cache stays consistent).
func NewDeltaEvaluator(a *Assignment) *DeltaEvaluator {
	d := &DeltaEvaluator{
		p:       a,
		ev:      NewEvaluator(a.mo),
		objCost: make([]int64, a.mo.n),
	}
	for k := 0; k < a.mo.n; k++ {
		d.objCost[k] = d.ev.objectCost(k, a.repl[k])
		d.cost += d.objCost[k]
	}
	return d
}

// Cost returns the current exact NTC.
func (d *DeltaEvaluator) Cost() int64 { return d.cost }

// ObjectCost returns the cached V_k.
func (d *DeltaEvaluator) ObjectCost(k int) int64 { return d.objCost[k] }

// AddDelta returns the cost change of placing a replica of k at site i
// without applying it. Returns 0, false if the placement is invalid — the
// same guards as the dense evaluator (duplicate or over capacity).
func (d *DeltaEvaluator) AddDelta(i, k int) (int64, bool) {
	if d.p.has(i, k) || d.p.free(i) < d.p.mo.size[k] {
		return 0, false
	}
	after := d.objectCostWith(k, i, true)
	return after - d.objCost[k], true
}

// RemoveDelta returns the cost change of dropping the replica of k at site
// i without applying it. Returns 0, false if the removal is invalid.
func (d *DeltaEvaluator) RemoveDelta(i, k int) (int64, bool) {
	if !d.p.has(i, k) || d.p.mo.primary[k] == int32(i) {
		return 0, false
	}
	after := d.objectCostWith(k, i, false)
	return after - d.objCost[k], true
}

// Add applies the placement and updates the cached cost.
func (d *DeltaEvaluator) Add(i, k int) error {
	if err := d.p.Add(i, k); err != nil {
		return err
	}
	d.refresh(k)
	return nil
}

// Remove applies the removal and updates the cached cost.
func (d *DeltaEvaluator) Remove(i, k int) error {
	if err := d.p.remove(i, k); err != nil {
		return err
	}
	d.refresh(k)
	return nil
}

func (d *DeltaEvaluator) refresh(k int) {
	next := d.ev.objectCost(k, d.p.repl[k])
	d.cost += next - d.objCost[k]
	d.objCost[k] = next
}

// objectCostWith computes V_k as if the replica at site i were present
// (add=true) or absent (add=false), without mutating the assignment.
func (d *DeltaEvaluator) objectCostWith(k, i int, add bool) int64 {
	d.scratch = d.scratch[:0]
	inserted := false
	for _, s := range d.p.repl[k] {
		if s == int32(i) {
			if add {
				d.scratch = append(d.scratch, s)
				inserted = true
			}
			continue
		}
		if add && !inserted && s > int32(i) {
			d.scratch = append(d.scratch, int32(i))
			inserted = true
		}
		d.scratch = append(d.scratch, s)
	}
	if add && !inserted {
		d.scratch = append(d.scratch, int32(i))
	}
	return d.ev.objectCost(k, d.scratch)
}
