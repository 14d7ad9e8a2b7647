// Package membership maintains the control plane's notion of which sites
// are part of the cluster: an epoch-numbered View over a fixed universe of
// n potential sites, mutated by JoinSite and LeaveSite. It is a set, not a
// router: the transfer costs C(i,j) between members belong to the
// core.Problem (the paper's a-priori cheapest-path matrix, §2.1), which
// does not change when a site joins or leaves; plan.Restrict slices it to
// a view's rows.
package membership

import (
	"fmt"
	"sort"
	"sync"
)

// View is one epoch of cluster membership: the sorted universe indices of
// the sites currently serving. Epochs are assigned by the Tracker and
// increase by exactly one per membership event, so a plan carrying a view
// can be ordered against any other.
type View struct {
	Epoch   int   `json:"epoch"`
	Members []int `json:"members"`
}

// Has reports whether site is a member of the view.
func (v View) Has(site int) bool {
	i := sort.SearchInts(v.Members, site)
	return i < len(v.Members) && v.Members[i] == site
}

// Clone returns a deep copy.
func (v View) Clone() View {
	return View{Epoch: v.Epoch, Members: append([]int(nil), v.Members...)}
}

// Equal reports whether two views have the same epoch and member set.
func (v View) Equal(o View) bool {
	if v.Epoch != o.Epoch || len(v.Members) != len(o.Members) {
		return false
	}
	for i, m := range v.Members {
		if o.Members[i] != m {
			return false
		}
	}
	return true
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

// Tracker owns the view. All methods are safe for concurrent use;
// subscriber callbacks run synchronously inside JoinSite / LeaveSite — in
// subscription order, every view exactly once, epochs ascending — but
// outside the state lock, so a callback may read the tracker. A callback
// must not mutate membership reentrantly.
type Tracker struct {
	// eventMu serialises membership mutations end-to-end (state change +
	// notification), which is what keeps subscriber callbacks in epoch
	// order without holding mu across them.
	eventMu sync.Mutex

	mu       sync.Mutex
	universe int
	view     View
	subs     []func(View)
}

// NewTracker builds a tracker over a universe of sites 0..universe-1 with
// the given initial members. The initial view has epoch 0.
func NewTracker(universe int, members []int) (*Tracker, error) {
	ms := append([]int(nil), members...)
	sort.Ints(ms)
	if len(ms) == 0 {
		return nil, fmt.Errorf("membership: need at least one initial member")
	}
	for i, m := range ms {
		if m < 0 || m >= universe {
			return nil, fmt.Errorf("membership: member %d outside universe of %d sites", m, universe)
		}
		if i > 0 && ms[i-1] == m {
			return nil, fmt.Errorf("membership: duplicate member %d", m)
		}
	}
	return &Tracker{universe: universe, view: View{Epoch: 0, Members: ms}}, nil
}

// Universe returns the number of sites that could ever join.
func (t *Tracker) Universe() int { return t.universe }

// View returns the current view.
func (t *Tracker) View() View {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.view.Clone()
}

// Subscribe registers fn to be called with every view emitted by a later
// JoinSite or LeaveSite. Callbacks run synchronously inside the membership
// event, so by the time it returns every subscriber has seen the view.
func (t *Tracker) Subscribe(fn func(View)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.subs = append(t.subs, fn)
}

// notify runs the subscriber callbacks for a committed view. Callers hold
// eventMu (never mu), so callbacks can read the tracker freely.
func (t *Tracker) notify(v View) {
	t.mu.Lock()
	subs := make([]func(View), len(t.subs))
	copy(subs, t.subs)
	t.mu.Unlock()
	for _, fn := range subs {
		fn(v.Clone())
	}
}

// JoinSite adds a site to the view and returns the new view.
func (t *Tracker) JoinSite(site int) (View, error) {
	t.eventMu.Lock()
	defer t.eventMu.Unlock()
	v, err := t.joinLocked(site)
	if err != nil {
		return View{}, err
	}
	t.notify(v)
	return v, nil
}

func (t *Tracker) joinLocked(site int) (View, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if site < 0 || site >= t.universe {
		return View{}, fmt.Errorf("membership: join of site %d outside universe of %d sites", site, t.universe)
	}
	if t.view.Has(site) {
		return View{}, fmt.Errorf("membership: site %d is already a member", site)
	}
	members := append(append([]int(nil), t.view.Members...), site)
	sort.Ints(members)
	t.view = View{Epoch: t.view.Epoch + 1, Members: members}
	return t.view.Clone(), nil
}

// LeaveSite removes a site from the view and returns the new view. The
// view must stay non-empty.
func (t *Tracker) LeaveSite(site int) (View, error) {
	t.eventMu.Lock()
	defer t.eventMu.Unlock()
	v, err := t.leaveLocked(site)
	if err != nil {
		return View{}, err
	}
	t.notify(v)
	return v, nil
}

func (t *Tracker) leaveLocked(site int) (View, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.view.Has(site) {
		return View{}, fmt.Errorf("membership: site %d is not a member", site)
	}
	if len(t.view.Members) == 1 {
		return View{}, fmt.Errorf("membership: cannot remove the last member")
	}
	survivors := make([]int, 0, len(t.view.Members)-1)
	for _, s := range t.view.Members {
		if s != site {
			survivors = append(survivors, s)
		}
	}
	t.view = View{Epoch: t.view.Epoch + 1, Members: survivors}
	return t.view.Clone(), nil
}
