package cluster

import (
	"math"
	"sort"
)

// costHist accumulates per-read transfer costs so percentiles can be
// reported without retaining every sample. Costs are small integers
// (size × hop-cost), so a sparse map keeps memory bounded by the number of
// distinct values.
type costHist struct {
	counts map[int64]int64
	total  int64
}

func newCostHist() *costHist {
	return &costHist{counts: make(map[int64]int64)}
}

func (h *costHist) add(cost int64) {
	h.counts[cost]++
	h.total++
}

// percentile returns the smallest cost c such that at least q (0..1) of
// the samples are ≤ c. Zero samples yield 0.
func (h *costHist) percentile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	keys := make([]int64, 0, len(h.counts))
	for k := range h.counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	threshold := int64(math.Ceil(q * float64(h.total)))
	if threshold < 1 {
		threshold = 1
	}
	var seen int64
	for _, k := range keys {
		seen += h.counts[k]
		if seen >= threshold {
			return k
		}
	}
	return keys[len(keys)-1]
}

func (h *costHist) max() int64 {
	var m int64
	for k := range h.counts {
		if k > m {
			m = k
		}
	}
	return m
}
