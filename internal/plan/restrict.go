package plan

import (
	"fmt"

	"drp/internal/core"
	"drp/internal/netsim"
)

// Restrict builds the dense sub-problem a solver sees for one view: rows
// for member sites only, in view order, with the given universe-indexed
// primaries mapped to dense indices and p's C(i,j) sliced to the members'
// rows and columns — a transfer between two members costs what it always
// did, whoever else is serving. Demand at non-member sites is gone — a
// departed site issues no reads or writes. Solve the result with any of
// the static/adaptive algorithms, then Lift the scheme back to universe
// coordinates.
func Restrict(p *core.Problem, view View, primaries []int) (*core.Problem, error) {
	m := len(view.Members)
	if len(primaries) != p.Objects() {
		return nil, fmt.Errorf("plan: %d primaries for %d objects", len(primaries), p.Objects())
	}
	idx := view.Index()
	densePrim := make([]int, p.Objects())
	for k, sp := range primaries {
		d, ok := idx[sp]
		if !ok {
			return nil, fmt.Errorf("plan: object %d primary %d is not a member of view epoch %d", k, sp, view.Epoch)
		}
		densePrim[k] = d
	}
	sizes := make([]int64, p.Objects())
	for k := range sizes {
		sizes[k] = p.Size(k)
	}
	sub := netsim.NewDistMatrix(m)
	caps := make([]int64, m)
	reads := make([][]int64, m)
	writes := make([][]int64, m)
	for d, site := range view.Members {
		caps[d] = p.Capacity(site)
		reads[d] = make([]int64, p.Objects())
		writes[d] = make([]int64, p.Objects())
		for k := 0; k < p.Objects(); k++ {
			reads[d][k] = p.Reads(site, k)
			writes[d][k] = p.Writes(site, k)
		}
		for e := d + 1; e < m; e++ {
			sub.Set(d, e, p.Cost(site, view.Members[e]))
		}
	}
	return core.NewProblem(core.Config{
		Sizes:      sizes,
		Capacities: caps,
		Primaries:  densePrim,
		Reads:      reads,
		Writes:     writes,
		Dist:       sub,
	})
}
