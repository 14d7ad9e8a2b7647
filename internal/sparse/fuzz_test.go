package sparse

import (
	"slices"
	"testing"

	"drp/internal/solver"
)

// FuzzCandidates draws instances from fuzzed WorkloadSpec fields — up to
// 130 sites, so one to three mask words — and holds every object's
// candidate set to candidateRule and every step of every greedy proposal
// to a candidate site other than the primary.
func FuzzCandidates(f *testing.F) {
	f.Add(uint8(11), uint8(30), uint8(9), uint8(3), uint16(1), uint16(39), uint16(1), uint16(3), uint16(0), uint16(9), uint8(34), 0.15, uint64(1))
	f.Add(uint8(0), uint8(5), uint8(0), uint8(1), uint16(0), uint16(0), uint16(0), uint16(0), uint16(0), uint16(0), uint8(0), 0.0, uint64(2))
	f.Add(uint8(64), uint8(20), uint8(12), uint8(0), uint16(5), uint16(500), uint16(0), uint16(0), uint16(3), uint16(1), uint8(60), 0.02, uint64(3))
	f.Add(uint8(129), uint8(12), uint8(40), uint8(8), uint16(1), uint16(40), uint16(2), uint16(30), uint16(0), uint16(90), uint8(10), 0.5, uint64(4))
	f.Fuzz(func(t *testing.T, sites, objects, readers, writers uint8, readMin, readSpan, writeMin, writeSpan, linkMin, linkSpan uint16, sizeMean uint8, capacity float64, seed uint64) {
		m := 1 + int(sites)%130
		spec := WorkloadSpec{
			Sites:         m,
			Objects:       1 + int(objects)%40,
			ReaderSites:   1 + int(readers)%m,
			WriterSites:   int(writers) % (m + 1),
			ReadMin:       int(readMin),
			ReadMax:       int(readMin) + int(readSpan),
			WriteMin:      int(writeMin),
			WriteMax:      int(writeMin) + int(writeSpan),
			LinkMin:       1 + int(linkMin),
			LinkMax:       1 + int(linkMin) + int(linkSpan),
			SizeMean:      1 + int(sizeMean),
			CapacityRatio: capacity,
		}
		mo, err := GenerateWorkload(spec, seed)
		if err != nil {
			return // a capacity ratio out of range, or traffic past the magnitude gate
		}
		rule := candidateRule(mo)
		cands := make([][]int32, mo.Objects())
		for k := range cands {
			cands[k] = mo.Candidates(k)
			if want, _ := rule(k); !slices.Equal(cands[k], want) {
				t.Fatalf("%+v object %d: candidates %v, rule gives %v", spec, k, cands[k], want)
			}
		}
		all := make([]int, mo.Objects())
		for k := range all {
			all[k] = k
		}
		props := make([]proposal, len(all))
		propose(mo, all, props, solver.Start("sparse", solver.Run{}))
		for k, p := range props {
			for _, x := range p.sites[:p.n] {
				if _, found := search(cands[k], x); !found || x == mo.Primary(k) {
					t.Fatalf("%+v object %d: proposal adds site %d, candidates %v", spec, k, x, cands[k])
				}
			}
		}
	})
}
