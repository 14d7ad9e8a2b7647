package sparse

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
)

// chunkedObjects spans three full object chunks and a ragged tail, so a
// construction pass that works chunk by chunk meets every kind of chunk
// boundary.
const chunkedObjects = 3*objectChunk + 17

// hashCaches writes every derived cache of mo into h: the traffic totals,
// V′_k, D′, the primaries' load and the slack they leave.
func hashCaches(h *[32]byte, mo *Model) {
	s := sha256.New()
	put := func(v any) { binary.Write(s, binary.LittleEndian, v) }
	put(mo.totalReads)
	put(mo.totalWrites)
	put(mo.vPrime)
	put(mo.dPrime)
	put(mo.primaryLoad)
	put(mo.slack)
	copy(h[:], s.Sum(nil))
}

// atProcs runs fn at GOMAXPROCS 1, 2 and 8 in turn.
func atProcs(t *testing.T, fn func(t *testing.T)) {
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			fn(t)
		})
	}
}

// TestChunkedBuildPinned pins, at every worker count, the SHA-256 of a
// generated instance of three object chunks and a ragged tail, of its 5 %
// perturbation with the changed list, and of both models' derived caches.
// It kills a chunk priced into another chunk's slots, a tail chunk cut
// short, D′ summed from a partial set of chunks, a perturbation run copied
// with unshifted offsets and a sampler that emits its sites out of order.
func TestChunkedBuildPinned(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		spec := NewWorkloadSpec(16, chunkedObjects)
		night, err := GenerateWorkload(spec, 59)
		if err != nil {
			t.Fatal(err)
		}
		day, changed, err := PerturbWorkload(night, spec, 0.05, 60)
		if err != nil {
			t.Fatal(err)
		}
		if len(changed) == 0 || changed[len(changed)-1] < 2*objectChunk {
			t.Fatalf("the perturbation changes no object past chunk 1: %v", changed)
		}
		nightHash, dayHash := sha256.New(), sha256.New()
		hashModel(nightHash, night)
		hashModel(dayHash, day)
		binary.Write(dayHash, binary.LittleEndian, int64(len(changed)))
		for _, k := range changed {
			binary.Write(dayHash, binary.LittleEndian, int64(k))
		}
		var nightCaches, dayCaches [32]byte
		hashCaches(&nightCaches, night)
		hashCaches(&dayCaches, day)
		for _, c := range []struct {
			name, got, want string
		}{
			{"GenerateWorkload", hex.EncodeToString(nightHash.Sum(nil)), "5ce3b490d17976b2e008da73fcd567a093540080116751ada573007e20b668f4"},
			{"PerturbWorkload", hex.EncodeToString(dayHash.Sum(nil)), "fc1e48a6b26715ca4e3e47054f626bf3cd2f81d54aa1d184652ad1bcf323ca27"},
			{"generated caches", hex.EncodeToString(nightCaches[:]), "75d65de6d5a1ae77cf7c80536bbd83ef80e88538ec353fd01e3606ffbbab0660"},
			{"perturbed caches", hex.EncodeToString(dayCaches[:]), "b7cf3bdfec6f147563278ec41b63db90695c2c178fd9483aebef1abe4d43c568"},
		} {
			if c.got != c.want {
				t.Errorf("%s digest %s, want %s", c.name, c.got, c.want)
			}
		}
	})
}

// cloneConfig returns mo's inputs as a config whose every array is a copy,
// for a test to corrupt.
func cloneConfig(mo *Model) config {
	return config{
		Sizes:      slices.Clone(mo.size),
		Capacities: slices.Clone(mo.cap),
		Primaries:  slices.Clone(mo.primary),
		Reads:      csr{Off: slices.Clone(mo.reads.Off), Site: slices.Clone(mo.reads.Site), Cnt: slices.Clone(mo.reads.Cnt)},
		Writes:     csr{Off: slices.Clone(mo.writes.Off), Site: slices.Clone(mo.writes.Site), Cnt: slices.Clone(mo.writes.Cnt)},
		Dist:       mo.dist,
	}
}

// entriesFrom returns the first object at or after from with at least
// want entries in c.
func entriesFrom(t *testing.T, c *csr, from, want int) int {
	t.Helper()
	for k := from; k+1 < len(c.Off); k++ {
		if int(c.Off[k+1]-c.Off[k]) >= want {
			return k
		}
	}
	t.Fatalf("no object from %d has %d entries", from, want)
	return -1
}

// TestNewModelErrorPrecedence plants faults in two different object
// chunks — or a fault and a later gate's trip — and pins the exact error
// newModel returns at every worker count: read-pattern errors before
// write-pattern errors, each at its lowest object; then traffic totals
// past int64; then the worst-case-NTC gate at the object where the running
// bound first passes int64, also when that object opens a chunk. It kills
// a write error reported before a later chunk's read error, chunks reduced
// last-first or in completion order, a chunk that stops at its first error
// of either kind and so misses a read error after a write error, a total
// overflow reported before a validation error, and a magnitude gate that
// sums its bound per chunk from zero.
func TestNewModelErrorPrecedence(t *testing.T) {
	base, err := GenerateWorkload(NewWorkloadSpec(16, chunkedObjects), 59)
	if err != nil {
		t.Fatal(err)
	}
	var maxC int64
	for i := range base.m {
		maxC = max(maxC, slices.Max(base.dist.Row(i)))
	}
	// Objects in chunk 0, 1, 2 and the tail chunk 3.
	c0, c1, c2, c3 := 5, objectChunk+9, 2*objectChunk+3, 3*objectChunk+11
	first := func(c *csr, k int) int32 { return c.Off[k] }
	siteRange := func(c *csr, k int) { c.Site[first(c, k)] = 16 }
	negative := func(c *csr, k int) { c.Cnt[first(c, k)] = -1 }
	repeat := func(c *csr, k int) { c.Site[first(c, k)+1] = c.Site[first(c, k)] }
	overflow := func(c *csr, k int) { c.Cnt[first(c, k)] = math.MaxInt64 }
	// heavy sets object k's first read count so that its gate term,
	// o_k·(R_k + 17·W_k + 1)·maxC, is about share·MaxInt64.
	heavy := func(cfg *config, k int, share float64) {
		rest := cfg.Reads.Cnt[first(&cfg.Reads, k)]
		var w int64
		for _, cnt := range cfg.Writes.Cnt[cfg.Writes.Off[k]:cfg.Writes.Off[k+1]] {
			w += cnt
		}
		var r int64
		for _, cnt := range cfg.Reads.Cnt[cfg.Reads.Off[k]:cfg.Reads.Off[k+1]] {
			r += cnt
		}
		target := int64(share * float64(math.MaxInt64) / float64(cfg.Sizes[k]*maxC))
		cfg.Reads.Cnt[first(&cfg.Reads, k)] = rest + target - (r + 17*w + 1)
	}
	cases := []struct {
		name    string
		corrupt func(t *testing.T, cfg *config)
		want    string
	}{
		{"read error in chunk 2 beats write error in chunk 0", func(t *testing.T, cfg *config) {
			siteRange(&cfg.Reads, c2)
			negative(&cfg.Writes, entriesFrom(t, &cfg.Writes, c0, 1))
		}, "sparse: read pattern object 8195 references site 16 of 16"},
		{"read error after a write error in the same chunk", func(t *testing.T, cfg *config) {
			negative(&cfg.Writes, entriesFrom(t, &cfg.Writes, c1, 1))
			negative(&cfg.Reads, c1+40)
		}, "sparse: read pattern object 4145 has negative count at site 7"},
		{"lowest of two read errors, chunks 1 and 3", func(t *testing.T, cfg *config) {
			negative(&cfg.Reads, c3)
			repeat(&cfg.Reads, entriesFrom(t, &cfg.Reads, c1, 2))
		}, "sparse: read pattern object 4105 sites not strictly ascending at entry 1"},
		{"lowest of two write errors, chunks 0 and 2", func(t *testing.T, cfg *config) {
			siteRange(&cfg.Writes, entriesFrom(t, &cfg.Writes, c2, 1))
			repeat(&cfg.Writes, entriesFrom(t, &cfg.Writes, c0, 2))
		}, "sparse: write pattern object 5 sites not strictly ascending at entry 1"},
		{"offsets decrease in chunk 1, site range in chunk 2", func(t *testing.T, cfg *config) {
			siteRange(&cfg.Reads, c2)
			cfg.Reads.Off[c1+1] = cfg.Reads.Off[c1] - 1
		}, "sparse: read pattern offsets decrease at object 4105"},
		{"write shape after a read error in chunk 3", func(t *testing.T, cfg *config) {
			negative(&cfg.Reads, c3)
			cfg.Writes.Cnt = cfg.Writes.Cnt[:len(cfg.Writes.Cnt)-1]
		}, "sparse: read pattern object 12299 has negative count at site 1"},
		{"write shape before write errors", func(t *testing.T, cfg *config) {
			negative(&cfg.Writes, entriesFrom(t, &cfg.Writes, c0, 1))
			cfg.Writes.Off[len(cfg.Writes.Off)-1]--
		}, "sparse: write pattern offsets end at 18474 but 18475 entries exist"},
		{"write error in chunk 3 beats a read total overflow in chunk 0", func(t *testing.T, cfg *config) {
			overflow(&cfg.Reads, entriesFrom(t, &cfg.Reads, c0, 2))
			negative(&cfg.Writes, entriesFrom(t, &cfg.Writes, c3, 1))
		}, "sparse: write pattern object 12299 has negative count at site 4"},
		{"lowest of two total overflows, write in chunk 1, read in chunk 2", func(t *testing.T, cfg *config) {
			overflow(&cfg.Reads, entriesFrom(t, &cfg.Reads, c2, 2))
			overflow(&cfg.Writes, entriesFrom(t, &cfg.Writes, c1, 2))
		}, "sparse: write total for object 4106 overflows int64"},
		{"read total before write total of one object", func(t *testing.T, cfg *config) {
			k := entriesFrom(t, &cfg.Writes, c2, 2)
			for cfg.Reads.Off[k+1]-cfg.Reads.Off[k] < 2 {
				k = entriesFrom(t, &cfg.Writes, k+1, 2)
			}
			overflow(&cfg.Writes, k)
			overflow(&cfg.Reads, k)
		}, "sparse: read total for object 8195 overflows int64"},
		{"total overflow in chunk 3 beats the gate in chunk 0", func(t *testing.T, cfg *config) {
			heavy(cfg, c0, 2)
			overflow(&cfg.Reads, entriesFrom(t, &cfg.Reads, c3, 2))
		}, "sparse: read total for object 12299 overflows int64"},
		{"gate on one object in chunk 2", func(t *testing.T, cfg *config) {
			heavy(cfg, c2, 1.5)
		}, "sparse: traffic volume of object 8195 overflows the int64 cost range"},
		{"gate passed by the first object of chunk 1", func(t *testing.T, cfg *config) {
			heavy(cfg, objectChunk-1, 0.6)
			heavy(cfg, objectChunk, 0.6)
		}, "sparse: traffic volume of object 4096 overflows the int64 cost range"},
		{"gate passed by the last object of chunk 0", func(t *testing.T, cfg *config) {
			heavy(cfg, c0, 0.6)
			heavy(cfg, objectChunk-1, 0.6)
		}, "sparse: traffic volume of object 4095 overflows the int64 cost range"},
		{"gate passed in the tail by bounds from chunks 1 and 2", func(t *testing.T, cfg *config) {
			heavy(cfg, c1, 0.4)
			heavy(cfg, c2, 0.4)
			heavy(cfg, c3, 0.4)
		}, "sparse: traffic volume of object 12299 overflows the int64 cost range"},
	}
	atProcs(t, func(t *testing.T) {
		if _, err := newModel(cloneConfig(base)); err != nil {
			t.Fatalf("uncorrupted instance rejected: %v", err)
		}
		for _, tc := range cases {
			cfg := cloneConfig(base)
			tc.corrupt(t, &cfg)
			_, err := newModel(cfg)
			if err == nil {
				t.Errorf("%s: accepted", tc.name)
			} else if err.Error() != tc.want {
				t.Errorf("%s: error %q, want %q", tc.name, err, tc.want)
			}
		}
	})
}
