package agra

import "drp/internal/core"

// DetectChanges compares two pattern snapshots of the same system and
// returns the objects whose total reads or writes moved by at least the
// given factor in either direction (at or below 1, any move counts) — the
// paper's trigger: AGRA runs "each time the R/W pattern of an object
// changes above a threshold value either in favour of reads, or updates".
// Objects whose totals went from zero to non-zero always qualify.
//
// The problems must have the same shape (it is the same network, observed
// at two times).
func DetectChanges(before, after *core.Problem, factor float64) []int {
	n := before.Objects()
	if after.Objects() < n {
		n = after.Objects()
	}
	var changed []int
	for k := 0; k < n; k++ {
		if movedBeyond(before.TotalReads(k), after.TotalReads(k), factor) ||
			movedBeyond(before.TotalWrites(k), after.TotalWrites(k), factor) {
			changed = append(changed, k)
		}
	}
	return changed
}

func movedBeyond(was, now int64, factor float64) bool {
	if was == now {
		return false
	}
	if was == 0 || now == 0 {
		return true
	}
	ratio := float64(now) / float64(was)
	return ratio >= factor || ratio <= 1/factor
}
