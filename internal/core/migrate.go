package core

// Placement identifies one (site, object) replica.
type Placement struct {
	Site, Object int
}

// Diff reports the placements present in next but not in s (added) and
// present in s but not in next (removed) — the migration plan for moving
// the network from one scheme to the other. Both schemes must belong to
// problems of identical shape.
func (s *Scheme) Diff(next *Scheme) (added, removed []Placement) {
	if s.p.m != next.p.m || s.p.n != next.p.n {
		panic("core: Diff across problems of different shape")
	}
	for i := 0; i < s.p.m; i++ {
		for k := 0; k < s.p.n; k++ {
			has, will := s.Has(i, k), next.Has(i, k)
			switch {
			case will && !has:
				added = append(added, Placement{Site: i, Object: k})
			case has && !will:
				removed = append(removed, Placement{Site: i, Object: k})
			}
		}
	}
	return added, removed
}

// MigrationCost returns the transfer cost of realising next from s: every
// added replica is fetched from the nearest site currently holding the
// object. Removals are free.
func (s *Scheme) MigrationCost(next *Scheme) int64 {
	added, _ := s.Diff(next)
	if len(added) == 0 {
		return 0
	}
	nt := NewNearestTable(s)
	var total int64
	for _, pl := range added {
		total += s.p.size[pl.Object] * nt.Dist(pl.Site, pl.Object)
	}
	return total
}
