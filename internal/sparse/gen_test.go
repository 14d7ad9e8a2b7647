package sparse

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"
)

// hashModel writes every input array of mo into h: shape, sizes,
// capacities, primaries, distances and both CSR patterns.
func hashModel(h hash.Hash, mo *Model) {
	// Writes to a hash.Hash never fail.
	put := func(v any) { binary.Write(h, binary.LittleEndian, v) }
	put([]int64{int64(mo.m), int64(mo.n)})
	put(mo.size)
	put(mo.cap)
	put(mo.primary)
	for i := 0; i < mo.m; i++ {
		put(mo.dist.Row(i))
	}
	for _, c := range []csr{mo.reads, mo.writes} {
		put(c.Off)
		put(c.Site)
		put(c.Cnt)
	}
}

// TestGeneratedInstancesPinned pins the SHA-256 of every model
// GenerateWorkload builds over M = 1…9, N ∈ {1, 7, 50}, three capacity
// ratios and writer bounds of 0 and the default, and of each model's 30 %
// perturbation with its changed list. A refactor of the generator must
// keep each one byte for byte. The sweep kills a reordered per-object draw,
// a dropped grow-to-fit step (capacity ratio 0 leaves every primary
// unhoused), a one-site network path that draws differently from M ≥ 2,
// and a perturbation that draws a changed object's pattern differently
// from the generator.
func TestGeneratedInstancesPinned(t *testing.T) {
	night, day := sha256.New(), sha256.New()
	for m := 1; m <= 9; m++ {
		for _, n := range []int{1, 7, 50} {
			for _, c := range []float64{0.15, 0, 0.02} {
				for _, writers := range []int{-1, 0} {
					spec := NewWorkloadSpec(m, n)
					spec.CapacityRatio = c
					if writers >= 0 {
						spec.WriterSites = writers
					}
					seed := uint64(100*m + n)
					mo, err := GenerateWorkload(spec, seed)
					if err != nil {
						t.Fatal(err)
					}
					hashModel(night, mo)
					shifted, changed, err := PerturbWorkload(mo, spec, 0.3, seed+1)
					if err != nil {
						t.Fatal(err)
					}
					hashModel(day, shifted)
					binary.Write(day, binary.LittleEndian, int64(len(changed)))
					for _, k := range changed {
						binary.Write(day, binary.LittleEndian, int64(k))
					}
				}
			}
		}
	}
	for _, c := range []struct {
		name string
		h    hash.Hash
		want string
	}{
		{"GenerateWorkload", night, "c9dcec54752e483519ec9864f3a72f0531c9f5480bf847163cf7d152edb22b42"},
		{"PerturbWorkload", day, "d7cbdd62c148d2a20cee3e4aa2f79351f23d45307042d5d82fbc454dda81d6b3"},
	} {
		if got := hex.EncodeToString(c.h.Sum(nil)); got != c.want {
			t.Errorf("%s models digest %s, want %s", c.name, got, c.want)
		}
	}
}

func TestWorkloadSpecValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*WorkloadSpec)
	}{
		{"no sites", func(s *WorkloadSpec) { s.Sites = 0 }},
		{"too many reader sites", func(s *WorkloadSpec) { s.ReaderSites = s.Sites + 1 }},
		{"negative capacity ratio", func(s *WorkloadSpec) { s.CapacityRatio = -1 }},
		{"NaN capacity ratio", func(s *WorkloadSpec) { s.CapacityRatio = math.NaN() }},
		{"capacities overflow int64", func(s *WorkloadSpec) { s.CapacityRatio = 1e300 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			spec := NewWorkloadSpec(6, 50)
			tt.mutate(&spec)
			if _, err := GenerateWorkload(spec, 1); err == nil {
				t.Fatal("invalid spec accepted")
			}
		})
	}
}
