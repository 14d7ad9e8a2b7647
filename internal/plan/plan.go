// Package plan defines the control plane's unit of intent: an
// epoch-numbered placement plan over a membership view. A Plan says, for
// every object in the universe problem, which member sites hold a replica
// and which member is the primary copy. Plans have a canonical codec (so
// two plans with the same content marshal to the same bytes and the same
// fingerprint), validity checks against a universe problem, and a Diff
// that turns the gap between two plans into an ordered list of migration
// steps — copies routed along min-cost C(i,j) paths first, then primary
// promotions, then drops, so a site never serves an object before its
// replica has arrived and never drops one another site still needs to
// copy from.
package plan

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"drp/internal/core"
)

// Plan is one epoch of placement intent. Placement and Primaries are
// universe-indexed: Placement[k] lists the universe sites holding object
// k (sorted ascending), Primaries[k] is the universe site owning k's
// primary copy. Every listed site must belong to View.
type Plan struct {
	Epoch     int     `json:"epoch"`
	View      View    `json:"view"`
	Primaries []int   `json:"primaries"`
	Placement [][]int `json:"placement"`
}

// FromScheme lifts a scheme over the universe problem into a plan: Lift
// over the view of every universe site, where each site is its own dense
// index, so primaries are the problem's. Use it to seed a plan sequence
// from a static solve.
func FromScheme(s *core.Scheme) *Plan {
	members := make([]int, s.Problem().Sites())
	for i := range members {
		members[i] = i
	}
	return Lift(View{Members: members}, s)
}

// Lift maps a scheme solved over a view-restricted problem back to
// universe coordinates: dense site d becomes view.Members[d]. The
// restricted problem's primaries are lifted the same way.
func Lift(view View, restricted *core.Scheme) *Plan {
	rp := restricted.Problem()
	pl := &Plan{
		View:      view.Clone(),
		Primaries: make([]int, rp.Objects()),
		Placement: make([][]int, rp.Objects()),
	}
	for k := 0; k < rp.Objects(); k++ {
		pl.Primaries[k] = view.Members[rp.Primary(k)]
		dense := restricted.Replicators(k)
		sites := make([]int, len(dense))
		for x, d := range dense {
			sites[x] = view.Members[d]
		}
		sort.Ints(sites)
		pl.Placement[k] = sites
	}
	return pl
}

// Scheme returns the plan's scheme form over the universe problem p. Only
// a valid plan that keeps every primary at its universe site has one — the
// plan type exists to relax exactly that — so a plan recorded for another
// problem shape, overfilling a site, or with a moved or drained primary is
// an error.
func (pl *Plan) Scheme(p *core.Problem) (*core.Scheme, error) {
	if err := pl.Validate(p); err != nil {
		return nil, err
	}
	s := core.NewScheme(p)
	for k, sites := range pl.Placement {
		sp := p.Primary(k)
		if pl.Primaries[k] != sp {
			return nil, fmt.Errorf("plan: object %d's primary copy is at site %d, not its universe site %d; the plan has no scheme form", k, pl.Primaries[k], sp)
		}
		for _, site := range sites {
			if site == sp {
				continue
			}
			if err := s.Add(site, k); err != nil {
				return nil, fmt.Errorf("plan: object %d on site %d: %w", k, site, err)
			}
		}
	}
	return s, nil
}

// Clone returns a deep copy.
func (pl *Plan) Clone() *Plan {
	c := &Plan{
		Epoch:     pl.Epoch,
		View:      pl.View.Clone(),
		Primaries: append([]int(nil), pl.Primaries...),
		Placement: make([][]int, len(pl.Placement)),
	}
	for k, sites := range pl.Placement {
		c.Placement[k] = append([]int(nil), sites...)
	}
	return c
}

// Equal reports whether two plans carry identical content, epochs
// included.
func (pl *Plan) Equal(o *Plan) bool {
	if pl.Epoch != o.Epoch || !pl.View.Equal(o.View) || len(pl.Primaries) != len(o.Primaries) || len(pl.Placement) != len(o.Placement) {
		return false
	}
	for k := range pl.Primaries {
		if pl.Primaries[k] != o.Primaries[k] {
			return false
		}
	}
	for k := range pl.Placement {
		if len(pl.Placement[k]) != len(o.Placement[k]) {
			return false
		}
		for x := range pl.Placement[k] {
			if pl.Placement[k][x] != o.Placement[k][x] {
				return false
			}
		}
	}
	return true
}

// Has reports whether site holds a replica of object k under the plan.
func (pl *Plan) Has(site, k int) bool {
	i := sort.SearchInts(pl.Placement[k], site)
	return i < len(pl.Placement[k]) && pl.Placement[k][i] == site
}

// Marshal encodes the plan canonically: fixed key order, no whitespace
// variance, nil slices normalised to empty. Two equal plans always
// marshal to identical bytes.
func (pl *Plan) Marshal() ([]byte, error) {
	c := pl.Clone()
	if c.View.Members == nil {
		c.View.Members = []int{}
	}
	if c.Primaries == nil {
		c.Primaries = []int{}
	}
	if c.Placement == nil {
		c.Placement = [][]int{}
	}
	for k, sites := range c.Placement {
		if sites == nil {
			c.Placement[k] = []int{}
		}
	}
	return json.Marshal(c)
}

// Unmarshal decodes a plan previously produced by Marshal and normalises
// its slices (sorted members and placements) so downstream binary
// searches hold.
func Unmarshal(data []byte) (*Plan, error) {
	var pl Plan
	if err := json.Unmarshal(data, &pl); err != nil {
		return nil, fmt.Errorf("plan: decode: %w", err)
	}
	sort.Ints(pl.View.Members)
	for _, sites := range pl.Placement {
		sort.Ints(sites)
	}
	return &pl, nil
}

// Fingerprint is a hex digest of the canonical encoding — a cheap
// identity for journals and wire exchanges.
func (pl *Plan) Fingerprint() string {
	data, err := pl.Marshal()
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// Validate checks the plan against the universe problem: every object has
// at least one replica, its primary holds one, every replica site is a
// view member inside the universe, placements are sorted and duplicate
// free, and no member's capacity is exceeded.
func (pl *Plan) Validate(p *core.Problem) error {
	if len(pl.Primaries) != p.Objects() || len(pl.Placement) != p.Objects() {
		return fmt.Errorf("plan: %d primaries / %d placements for %d objects",
			len(pl.Primaries), len(pl.Placement), p.Objects())
	}
	used := make(map[int]int64)
	for k := 0; k < p.Objects(); k++ {
		sites := pl.Placement[k]
		if len(sites) == 0 {
			return fmt.Errorf("plan: object %d has no replicas", k)
		}
		for x, s := range sites {
			if s < 0 || s >= p.Sites() {
				return fmt.Errorf("plan: object %d placed on site %d outside universe of %d", k, s, p.Sites())
			}
			if !pl.View.Has(s) {
				return fmt.Errorf("plan: object %d placed on site %d which is not in view epoch %d", k, s, pl.View.Epoch)
			}
			if x > 0 && sites[x-1] >= s {
				return fmt.Errorf("plan: object %d placement not sorted/unique at site %d", k, s)
			}
			used[s] += p.Size(k)
		}
		if !pl.Has(pl.Primaries[k], k) {
			return fmt.Errorf("plan: object %d primary %d holds no replica", k, pl.Primaries[k])
		}
	}
	for s, u := range used {
		if u > p.Capacity(s) {
			return fmt.Errorf("plan: site %d needs %d units but has capacity %d", s, u, p.Capacity(s))
		}
	}
	return nil
}
