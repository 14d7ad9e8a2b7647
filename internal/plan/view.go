package plan

import (
	"errors"
	"fmt"
	"slices"
)

// View is one epoch of cluster membership: the sorted universe indices of
// the sites currently serving. NewView founds epoch 0 and every Join or
// Leave adds exactly one, so a plan carrying a view can be ordered against
// any other. A view is a value: every transition returns the next view and
// leaves its receiver alone, so nothing here is shared or locked. It is a
// set, not a router: the transfer costs C(i,j) between members belong to
// the core.Problem, which does not change when a site joins or leaves;
// Restrict slices it to a view's rows.
type View struct {
	Epoch   int   `json:"epoch"`
	Members []int `json:"members"`
}

// NewView validates a founding member set over a universe of sites
// 0..universe-1 and returns its view at epoch 0: a sorted copy of a
// non-empty set whose members are in the universe and listed once.
func NewView(universe int, members []int) (View, error) {
	ms := append([]int(nil), members...)
	slices.Sort(ms)
	if len(ms) == 0 {
		return View{}, errors.New("membership: need at least one initial member")
	}
	for i, m := range ms {
		if m < 0 || m >= universe {
			return View{}, fmt.Errorf("membership: member %d outside universe of %d sites", m, universe)
		}
		if i > 0 && ms[i-1] == m {
			return View{}, fmt.Errorf("membership: duplicate member %d", m)
		}
	}
	return View{Members: ms}, nil
}

// Has reports whether site is a member of the view.
func (v View) Has(site int) bool {
	_, ok := slices.BinarySearch(v.Members, site)
	return ok
}

// Clone returns a deep copy.
func (v View) Clone() View {
	return View{Epoch: v.Epoch, Members: append([]int(nil), v.Members...)}
}

// Equal reports whether two views have the same epoch and member set.
func (v View) Equal(o View) bool {
	return v.Epoch == o.Epoch && slices.Equal(v.Members, o.Members)
}

// Index returns the dense index of every member: Index()[site] is the row
// the site occupies in a view-restricted problem.
func (v View) Index() map[int]int {
	idx := make(map[int]int, len(v.Members))
	for d, site := range v.Members {
		idx[site] = d
	}
	return idx
}

func (v View) String() string {
	return fmt.Sprintf("view{epoch %d, members %v}", v.Epoch, v.Members)
}

// Join returns the view after site, a non-member of the universe of sites
// 0..universe-1, joins: the next epoch with site added.
func (v View) Join(universe, site int) (View, error) {
	if site < 0 || site >= universe {
		return View{}, fmt.Errorf("membership: join of site %d outside universe of %d sites", site, universe)
	}
	i, found := slices.BinarySearch(v.Members, site)
	if found {
		return View{}, fmt.Errorf("membership: site %d is already a member", site)
	}
	return View{Epoch: v.Epoch + 1, Members: slices.Concat(v.Members[:i], []int{site}, v.Members[i:])}, nil
}

// Leave returns the view after member site leaves: the next epoch with
// site removed. The last member cannot leave.
func (v View) Leave(site int) (View, error) {
	i, found := slices.BinarySearch(v.Members, site)
	if !found {
		return View{}, fmt.Errorf("membership: site %d is not a member", site)
	}
	if len(v.Members) == 1 {
		return View{}, errors.New("membership: cannot remove the last member")
	}
	return View{Epoch: v.Epoch + 1, Members: slices.Concat(v.Members[:i], v.Members[i+1:])}, nil
}
