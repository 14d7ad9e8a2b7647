package sparse

import (
	"fmt"

	"drp/internal/core"
)

// Assignment is the sparse analogue of core.Scheme: a mutable replication
// scheme stored as per-object replica-site lists instead of an M×N bit
// matrix. The same two invariants hold at every mutation — the primary copy
// is never dropped and Σ_k o_k over a site's replicas stays within s(i) —
// and mutations fail with the same sentinel errors (core.ErrCapacity,
// core.ErrPrimary, core.ErrDuplicate, core.ErrAbsent) so callers written
// against the dense scheme match errors unchanged.
//
// Replica lists are kept ascending, so list order is a pure function of the
// set — two assignments holding the same replicas are representation-equal,
// which the shard-determinism tests rely on.
type Assignment struct {
	mo   *Model
	repl [][]int32 // repl[k]: ascending site list, primary always present
	used []int64   // storage consumed per site
}

// NewAssignment returns the primaries-only allocation. The per-object
// replica lists start as length-1 views into one pooled backing array, so
// an N=1e6 instance allocates two slabs, not a million slivers; lists that
// grow past their slot migrate to their own storage on first append.
func NewAssignment(mo *Model) *Assignment {
	return newAssignment(mo, func(int) int { return 0 })
}

// newAssignment is NewAssignment with room(k) spare slots after object k's
// slot in the backing array, so that many adds to k allocate nothing.
func newAssignment(mo *Model, room func(k int) int) *Assignment {
	total := mo.n
	for k := range mo.n {
		total += room(k)
	}
	backing := make([]int32, total)
	a := &Assignment{
		mo:   mo,
		repl: make([][]int32, mo.n),
		used: make([]int64, mo.m),
	}
	off := 0
	for k := range mo.n {
		end := off + 1 + room(k)
		backing[off] = mo.primary[k]
		a.repl[k] = backing[off : off+1 : end]
		off = end
	}
	copy(a.used, mo.primaryLoad)
	return a
}

// has reports whether site i holds a replica of object k.
func (a *Assignment) has(i, k int) bool {
	_, found := search(a.repl[k], int32(i))
	return found
}

// search locates site in an ascending list: the insertion index and whether
// the site is present. Lists are short (bounded by the candidate count), so
// a linear scan beats binary search in practice and stays branch-predictable.
func search(list []int32, site int32) (int, bool) {
	for idx, s := range list {
		if s == site {
			return idx, true
		}
		if s > site {
			return idx, false
		}
	}
	return len(list), false
}

// free returns the remaining capacity b(i) at site i.
func (a *Assignment) free(i int) int64 { return a.mo.cap[i] - a.used[i] }

// Replicators returns object k's replica sites, ascending — a live view;
// callers must not modify it.
func (a *Assignment) Replicators(k int) []int32 { return a.repl[k] }

// TotalReplicas returns the replica count beyond the N primary copies.
func (a *Assignment) TotalReplicas() int {
	total := 0
	for _, l := range a.repl {
		total += len(l) - 1
	}
	return total
}

// Add places a replica of object k at site i.
func (a *Assignment) Add(i, k int) error {
	idx, found := search(a.repl[k], int32(i))
	if found {
		return core.ErrDuplicate
	}
	if a.free(i) < a.mo.size[k] {
		return core.ErrCapacity
	}
	list := a.repl[k]
	if len(list) < cap(list) {
		list = list[:len(list)+1]
		copy(list[idx+1:], list[idx:])
	} else {
		grown := make([]int32, len(list)+1, len(list)+2)
		copy(grown, list[:idx])
		copy(grown[idx+1:], list[idx:])
		list = grown
	}
	list[idx] = int32(i)
	a.repl[k] = list
	a.used[i] += a.mo.size[k]
	return nil
}

// remove drops the replica of object k from site i. Primary copies cannot
// be removed.
func (a *Assignment) remove(i, k int) error {
	idx, found := search(a.repl[k], int32(i))
	if !found {
		return core.ErrAbsent
	}
	if a.mo.primary[k] == int32(i) {
		return core.ErrPrimary
	}
	list := a.repl[k]
	copy(list[idx:], list[idx+1:])
	a.repl[k] = list[:len(list)-1]
	a.used[i] -= a.mo.size[k]
	return nil
}

// Clone returns a deep copy.
func (a *Assignment) Clone() *Assignment {
	out := &Assignment{
		mo:   a.mo,
		repl: make([][]int32, a.mo.n),
		used: append([]int64(nil), a.used...),
	}
	backing := make([]int32, 0, a.mo.n+a.TotalReplicas())
	for k, l := range a.repl {
		start := len(backing)
		backing = append(backing, l...)
		out.repl[k] = backing[start:len(backing):len(backing)]
	}
	return out
}

// Equal reports whether two assignments place identical replicas.
func (a *Assignment) Equal(other *Assignment) bool {
	if a.mo != other.mo {
		return false
	}
	for k := range a.repl {
		if len(a.repl[k]) != len(other.repl[k]) {
			return false
		}
		for idx, s := range a.repl[k] {
			if other.repl[k][idx] != s {
				return false
			}
		}
	}
	return true
}

// ToScheme converts into a dense core.Scheme over the equivalent dense
// problem — the bridge the differential tests cross.
func (a *Assignment) ToScheme(p *core.Problem) (*core.Scheme, error) {
	if p.Sites() != a.mo.m || p.Objects() != a.mo.n {
		return nil, fmt.Errorf("sparse: problem is %d×%d, assignment is %d×%d", p.Sites(), p.Objects(), a.mo.m, a.mo.n)
	}
	s := core.NewScheme(p)
	for k, l := range a.repl {
		for _, i := range l {
			if int(i) == p.Primary(k) {
				continue
			}
			if err := s.Add(int(i), k); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// FromScheme converts a dense scheme into a sparse assignment over mo
// (dimensions must agree). Replicas outside the candidate sets are
// accepted: pruning constrains what the solver proposes, not what the
// representation can hold or evaluate, so schemes produced by the dense
// algorithms always convert.
func FromScheme(mo *Model, s *core.Scheme) (*Assignment, error) {
	p := s.Problem()
	if p.Sites() != mo.m || p.Objects() != mo.n {
		return nil, fmt.Errorf("sparse: scheme is %d×%d, model is %d×%d", p.Sites(), p.Objects(), mo.m, mo.n)
	}
	a := NewAssignment(mo)
	for k := 0; k < mo.n; k++ {
		for _, i := range s.Replicators(k) {
			if int32(i) == mo.primary[k] {
				continue
			}
			if err := a.Add(i, k); err != nil {
				return nil, err
			}
		}
	}
	return a, nil
}

// Validate re-checks both DRP constraints from scratch, mirroring
// core.Scheme.Validate.
func (a *Assignment) Validate() error {
	usage := make([]int64, a.mo.m)
	for k, l := range a.repl {
		prev := int32(-1)
		hasPrimary := false
		for _, s := range l {
			if s <= prev {
				return fmt.Errorf("sparse: object %d replica list not ascending", k)
			}
			prev = s
			usage[s] += a.mo.size[k]
			if s == a.mo.primary[k] {
				hasPrimary = true
			}
		}
		if !hasPrimary {
			return fmt.Errorf("sparse: object %d lost its primary copy", k)
		}
	}
	for i := 0; i < a.mo.m; i++ {
		if usage[i] != a.used[i] {
			return fmt.Errorf("sparse: site %d tracked usage %d != actual %d", i, a.used[i], usage[i])
		}
		if usage[i] > a.mo.cap[i] {
			return fmt.Errorf("sparse: site %d over capacity: %d > %d", i, usage[i], a.mo.cap[i])
		}
	}
	return nil
}
