package workload

import (
	"fmt"
	"math"

	"drp/internal/core"
	"drp/internal/xrand"
)

// Direction says which side of an object's read/write pattern surged.
type Direction int

// Pattern change directions.
const (
	readsUp Direction = iota + 1
	writesUp
)

func (d Direction) String() string {
	switch d {
	case readsUp:
		return "reads-up"
	case writesUp:
		return "writes-up"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Change describes one object whose pattern shifted, as reported to the
// adaptive algorithm.
type Change struct {
	Object    int
	Direction Direction
	// Added is the number of new requests injected for the object.
	Added int64
}

// ChangeSpec parameterises the Section 6.3 daytime pattern shift.
//
// With the paper's running example (M=50, N=200): Ch=6.0, ObjectShare=0.3,
// ReadShare=0.8 means 30% of the objects change, 80% of those see their
// reads grow by 600% and 20% see their updates grow by 600%.
type ChangeSpec struct {
	Ch          float64 // fractional increase of the changing total (6.0 = +600%)
	ObjectShare float64 // OCh: fraction of objects whose pattern changes
	ReadShare   float64 // R: fraction of changing objects whose *reads* increase
}

// validate rejects a share outside [0,1], NaN included.
func (c ChangeSpec) validate() error {
	switch {
	case !(c.ObjectShare >= 0 && c.ObjectShare <= 1):
		return fmt.Errorf("workload: ObjectShare %v outside [0,1]", c.ObjectShare)
	case !(c.ReadShare >= 0 && c.ReadShare <= 1):
		return fmt.Errorf("workload: ReadShare %v outside [0,1]", c.ReadShare)
	}
	return nil
}

// ApplyChange perturbs p's read/write patterns per spec and returns the new
// problem together with the per-object change records (sorted by object).
//
// New reads are added one by one to uniformly random sites. New updates are
// split: half are spread uniformly like reads, half are clustered — assigned
// by a normal distribution whose mean is a random site and whose variance is
// M/5, simulating objects updated from a specific cluster of nodes (wrapped
// around the site ring).
func ApplyChange(p *core.Problem, spec ChangeSpec, seed uint64) (*core.Problem, []Change, error) {
	if err := spec.validate(); err != nil {
		return nil, nil, err
	}
	rng := xrand.New(seed)
	n := p.Objects()
	reads := p.ReadMatrix()
	writes := p.WriteMatrix()

	numChanged := int(spec.ObjectShare*float64(n) + 0.5)
	if numChanged > n {
		numChanged = n
	}
	perm := rng.Perm(n)
	chosen := perm[:numChanged]
	numReadsUp := int(spec.ReadShare*float64(numChanged) + 0.5)
	// Ch·reqs is the number of requests to add, one RNG draw each.
	var reqs int64
	for idx, k := range chosen {
		if idx < numReadsUp {
			reqs += p.TotalReads(k)
		} else {
			reqs += p.TotalWrites(k)
		}
	}
	if err := checkRatio("Ch", spec.Ch, float64(reqs), maxDraws); err != nil {
		return nil, nil, err
	}

	changes := make([]Change, 0, numChanged)
	for idx, k := range chosen {
		if idx < numReadsUp {
			added := addReads(reads, p, k, spec.Ch, rng)
			changes = append(changes, Change{Object: k, Direction: readsUp, Added: added})
		} else {
			added := addWrites(writes, p, k, spec.Ch, rng)
			changes = append(changes, Change{Object: k, Direction: writesUp, Added: added})
		}
	}
	sortChanges(changes)

	next, err := p.WithPatterns(reads, writes)
	if err != nil {
		return nil, nil, err
	}
	return next, changes, nil
}

func addReads(reads [][]int64, p *core.Problem, k int, ch float64, rng *xrand.Source) int64 {
	added := int64(ch*float64(p.TotalReads(k)) + 0.5)
	m := len(reads)
	for r := int64(0); r < added; r++ {
		reads[rng.Intn(m)][k]++
	}
	return added
}

func addWrites(writes [][]int64, p *core.Problem, k int, ch float64, rng *xrand.Source) int64 {
	added := int64(ch*float64(p.TotalWrites(k)) + 0.5)
	m := len(writes)
	uniform := added / 2
	for u := int64(0); u < uniform; u++ {
		writes[rng.Intn(m)][k]++
	}
	// Clustered half: normal around a random centre, variance M/5.
	centre := float64(rng.Intn(m))
	stddev := math.Sqrt(float64(m) / 5)
	for u := uniform; u < added; u++ {
		site := int(math.Round(rng.Norm(centre, stddev)))
		site %= m
		if site < 0 {
			site += m
		}
		writes[site][k]++
	}
	return added
}

func sortChanges(changes []Change) {
	// Insertion sort by object id: change lists are short and this avoids
	// pulling in sort for a trivial key.
	for i := 1; i < len(changes); i++ {
		for j := i; j > 0 && changes[j].Object < changes[j-1].Object; j-- {
			changes[j], changes[j-1] = changes[j-1], changes[j]
		}
	}
}
