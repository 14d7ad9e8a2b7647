package sparse

import "sync/atomic"

// Evaluator computes eq. 4's D over the sparse representation. Where the
// dense core.Evaluator walks all M sites per object, this one touches only
// the replicators (for the update fan-in term) and the object's CSR
// read/write entries (for the non-replicator terms) — O(|R_k| + nnz_k)
// instead of O(M·|R_k|) per object. Every term is the same int64 product
// the dense evaluator adds, and int64 addition is associative and
// commutative, so the reordered sum is bit-identical; the sparse-eval
// differential check in internal/verify holds the two paths equal.
//
// An Evaluator holds no scratch, so it is safe for concurrent use (Adapt
// prices its start cost with one evaluator across its shard workers).
type Evaluator struct {
	mo    *Model
	meter *atomic.Int64
}

// NewEvaluator returns an evaluator for mo.
func NewEvaluator(mo *Model) *Evaluator { return &Evaluator{mo: mo} }

// SetMeter attaches an evaluation counter: every subsequent Cost and
// ObjectCost call adds one to it, the same unit the dense evaluator meters,
// so sparse runs draw from solver budgets identically. The counter may be
// shared across evaluators (and goroutines); nil detaches.
func (e *Evaluator) SetMeter(meter *atomic.Int64) { e.meter = meter }

// Cost returns D for the assignment.
func (e *Evaluator) Cost(a *Assignment) int64 {
	if e.meter != nil {
		e.meter.Add(1)
	}
	var total int64
	for k := 0; k < e.mo.n; k++ {
		total += e.objectCost(k, a.repl[k])
	}
	return total
}

// ObjectCost returns V_k, the NTC attributable to object k, for the
// replicator set given as ascending site indices.
func (e *Evaluator) ObjectCost(k int, replicators []int32) int64 {
	if e.meter != nil {
		e.meter.Add(1)
	}
	return e.objectCost(k, replicators)
}

func (e *Evaluator) objectCost(k int, repl []int32) int64 {
	mo := e.mo
	if len(repl) == 0 {
		// Degenerate replica-free input: primaries-only, like the dense path.
		return mo.vPrime[k]
	}
	sp := int(mo.primary[k])
	ok := mo.size[k]
	wTot := mo.totalWrites[k]
	spRow := mo.dist.Row(sp)
	var total int64
	// Update fan-in: every replicator receives each update from the primary
	// (a replicator's own writes ship via the x=i term, exactly as dense).
	for _, i := range repl {
		total += wTot * ok * spRow[i]
	}
	// Non-replicator reads go to the nearest replica; non-replicator writes
	// ship to the primary. Sites with zero traffic contribute zero in the
	// dense sum, so skipping them cannot diverge.
	rs, rc := mo.ReadEntries(k)
	for idx, j := range rs {
		if _, isRepl := search(repl, j); isRepl {
			continue
		}
		row := mo.dist.Row(int(j))
		dmin := row[repl[0]]
		for _, x := range repl[1:] {
			if d := row[x]; d < dmin {
				dmin = d
			}
		}
		total += rc[idx] * ok * dmin
	}
	ws, wc := mo.WriteEntries(k)
	for idx, j := range ws {
		if _, isRepl := search(repl, j); isRepl {
			continue
		}
		total += wc[idx] * ok * spRow[j]
	}
	return total
}
