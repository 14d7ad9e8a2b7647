package plan

import (
	"fmt"
	"sort"

	"drp/internal/bitset"
	"drp/internal/core"
)

// StepKind classifies one migration step.
type StepKind int

// Migration step kinds, in execution-phase order: every Copy lands before
// any Promote, and every Promote before any Drop.
const (
	Copy StepKind = iota + 1
	Promote
	Drop
)

func (k StepKind) String() string {
	switch k {
	case Copy:
		return "copy"
	case Promote:
		return "promote"
	case Drop:
		return "drop"
	default:
		return fmt.Sprintf("StepKind(%d)", int(k))
	}
}

// Step is one unit of migration work. For a Copy, Site gains a replica of
// Object fetched from From at the given transfer cost (size × C). For a
// Promote, Site becomes Object's primary, taking over from From. For a
// Drop, Site deletes its replica.
type Step struct {
	Kind   StepKind `json:"kind"`
	Object int      `json:"object"`
	Site   int      `json:"site"`
	From   int      `json:"from,omitempty"`
	Cost   int64    `json:"cost,omitempty"`
}

func (s Step) String() string {
	switch s.Kind {
	case Copy:
		return fmt.Sprintf("copy obj %d to site %d from %d (cost %d)", s.Object, s.Site, s.From, s.Cost)
	case Promote:
		return fmt.Sprintf("promote obj %d primary %d -> %d", s.Object, s.From, s.Site)
	default:
		return fmt.Sprintf("drop obj %d from site %d", s.Object, s.Site)
	}
}

// Diff computes the ordered migration steps that take the data plane from
// plan old to plan next. Copies come first: each replica gained in next is
// fetched from the min-cost current holder, preferring holders that
// survive into next's view (a departing site is used as a source only
// when it holds the sole copy), ties broken by lowest site index. Then
// primary promotions, then drops — so replicas copy in before anything
// serves from them, and a departing site drains (keeps serving as a
// source) before its replicas are dropped. p supplies C(i,j) and object
// sizes.
func Diff(old, next *Plan, p *core.Problem) ([]Step, error) {
	if len(old.Placement) != len(next.Placement) {
		return nil, fmt.Errorf("plan: diff over %d vs %d objects", len(old.Placement), len(next.Placement))
	}
	var copies, promotes, drops []Step
	for k := range next.Placement {
		for _, site := range next.Placement[k] {
			if old.Has(site, k) {
				continue
			}
			from, c, err := bestSource(old, next, p, k, site)
			if err != nil {
				return nil, err
			}
			copies = append(copies, Step{Kind: Copy, Object: k, Site: site, From: from, Cost: p.Size(k) * c})
		}
		if old.Primaries[k] != next.Primaries[k] {
			promotes = append(promotes, Step{Kind: Promote, Object: k, Site: next.Primaries[k], From: old.Primaries[k]})
		}
		for _, site := range old.Placement[k] {
			if !next.Has(site, k) {
				drops = append(drops, Step{Kind: Drop, Object: k, Site: site})
			}
		}
	}
	order := func(steps []Step) {
		sort.Slice(steps, func(a, b int) bool {
			if steps[a].Object != steps[b].Object {
				return steps[a].Object < steps[b].Object
			}
			return steps[a].Site < steps[b].Site
		})
	}
	order(copies)
	order(promotes)
	order(drops)
	steps := make([]Step, 0, len(copies)+len(promotes)+len(drops))
	steps = append(steps, copies...)
	steps = append(steps, promotes...)
	steps = append(steps, drops...)
	return steps, nil
}

// bestSource picks where a new replica of object k at dst is fetched
// from: the min-cost holder under old, preferring holders that remain
// members of next's view. C(i,j) is never negative (netsim builds it from
// positive link costs and ReadProblem validates it), so every other
// holder is a candidate.
func bestSource(old, next *Plan, p *core.Problem, k, dst int) (int, int64, error) {
	best, bestCost, bestSurvives := -1, int64(0), false
	for _, src := range old.Placement[k] {
		if src == dst {
			continue
		}
		c := p.Cost(src, dst)
		survives := next.View.Has(src)
		better := best < 0 ||
			(survives && !bestSurvives) ||
			(survives == bestSurvives && c < bestCost)
		if better {
			best, bestCost, bestSurvives = src, c, survives
		}
	}
	if best < 0 {
		return 0, 0, fmt.Errorf("plan: no source for object %d at site %d", k, dst)
	}
	return best, bestCost, nil
}

// TotalCost sums the transfer cost of a step list — the exact a-priori
// migration NTC the data plane will account when executing it.
func TotalCost(steps []Step) int64 {
	var sum int64
	for _, s := range steps {
		sum += s.Cost
	}
	return sum
}

// ServeCost is eq. 4 for the plan over its view — what the netnode data
// plane accounts on the wire for one measurement period: the plan's
// placement priced by the core kernel on the view-restricted problem, so
// demand at non-member sites does not exist and a moved primary is served
// where the plan put it. pl must be valid for p (Plan.Validate); an invalid
// plan has no serve cost and panics.
func ServeCost(p *core.Problem, pl *Plan) int64 {
	rp, err := Restrict(p, pl.View, pl.Primaries)
	if err != nil {
		panic(fmt.Sprintf("plan: ServeCost of an invalid plan: %v", err))
	}
	idx := pl.View.Index()
	x := bitset.New(rp.Sites() * rp.Objects())
	for k, sites := range pl.Placement {
		for _, site := range sites {
			x.Set(idx[site]*rp.Objects() + k)
		}
	}
	return core.NewEvaluator(rp).Cost(x)
}
