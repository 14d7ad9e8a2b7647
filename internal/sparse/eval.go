package sparse

import "sync/atomic"

// Evaluator computes eq. 4's D over the sparse representation. Where the
// dense core.Evaluator walks all M sites per object, this one touches only
// the replicators (for the update fan-in term) and the object's CSR
// read/write entries — O(|R_k|·(reads_k + 1) + writes_k) instead of
// O(M·|R_k|) per object. Every term is the same int64 product
// the dense evaluator adds, and int64 addition is associative and
// commutative, so the reordered sum is bit-identical; the sparse-eval
// differential check in internal/verify holds the two paths equal.
//
// An Evaluator holds no scratch, so it is safe for concurrent use (Adapt
// prices its start cost with one evaluator across its shard workers).
type Evaluator struct {
	mo *Model
	// priced counts the V_k priced through Cost, ObjectCost and Adapt's
	// start pass, for tests: bumped once per call or per chunk, never per
	// object inside a worker.
	priced atomic.Int64
}

// NewEvaluator returns an evaluator for mo.
func NewEvaluator(mo *Model) *Evaluator { return &Evaluator{mo: mo} }

// Cost returns D for the assignment.
func (e *Evaluator) Cost(a *Assignment) int64 {
	var total int64
	for k := 0; k < e.mo.n; k++ {
		total += e.objectCost(k, a.repl[k])
	}
	e.priced.Add(int64(e.mo.n))
	return total
}

// ObjectCost returns V_k, the NTC attributable to object k, for the
// replicator set given as ascending site indices.
func (e *Evaluator) ObjectCost(k int, replicators []int32) int64 {
	e.priced.Add(1)
	return e.objectCost(k, replicators)
}

// objectCost is eq. 4 for one object with o_k factored out of every term:
//
//	V_k = o_k·(Wtot·Σ_{i∈R} C(SP,i) + Σ_j r_j·min_{x∈R} C(j,x) + Σ_{j∉R} w_j·C(j,SP))
//
// No reader needs a membership test: DistMatrix.Validate makes C(j,j) = 0
// and every other cost positive, so a reader that holds a replica finds
// its min at zero by itself. Writers do need one, and get it from a single
// merge walk, since both lists ascend. The products are the same int64
// terms as the dense sum, regrouped, and the magnitude gate newModel
// applies bounds every partial sum.
func (e *Evaluator) objectCost(k int, repl []int32) int64 {
	mo := e.mo
	if len(repl) == 0 {
		// Degenerate replica-free input: primaries-only, like the dense path.
		return mo.vPrime[k]
	}
	spRow := mo.dist.Row(int(mo.primary[k]))
	var fanIn int64
	for _, i := range repl {
		fanIn += spRow[i]
	}
	var read int64
	rs, rc := mo.readEntries(k)
	for idx, j := range rs {
		row := mo.dist.Row(int(j))
		dmin := row[repl[0]]
		for _, x := range repl[1:] {
			dmin = min(dmin, row[x])
		}
		read += rc[idx] * dmin
	}
	var ship int64
	ws, wc := mo.writeEntries(k)
	r := 0
	for idx, j := range ws {
		for r < len(repl) && repl[r] < j {
			r++
		}
		if r < len(repl) && repl[r] == j {
			continue // a replicator's own writes ship nowhere
		}
		ship += wc[idx] * spRow[j]
	}
	return mo.size[k] * (mo.totalWrites[k]*fanIn + read + ship)
}
