package workload

import (
	"math"
	"testing"

	"drp/internal/core"
)

// FuzzGenerate drives both generators with arbitrary ratios and skews over
// small shapes (a zero skew selects Generate, as drpgen does). An accepted
// spec must give an instance core accepts, with every object's update
// total in its U(T/2, 3T/2) band around U% of its reads and every capacity
// in its U(C·S/2, 3C·S/2) band or grown to hold its site's primaries. A
// rejected spec must have a negative or non-finite ratio or skew, a
// capacity ratio whose draws cannot fit an int64, or an update ratio that
// may draw more than maxDraws updates.
func FuzzGenerate(f *testing.F) {
	f.Add(uint8(5), uint8(20), 0.05, 0.15, 0.0, uint64(1))
	f.Add(uint8(0), uint8(0), 0.0, 0.0, 0.8, uint64(2))
	f.Add(uint8(3), uint8(5), 0.05, math.NaN(), 0.0, uint64(3))
	f.Add(uint8(3), uint8(5), 1e300, 0.15, 2.0, uint64(4))
	f.Add(uint8(3), uint8(5), 0.05, 1e300, -1.0, uint64(5))
	f.Fuzz(func(t *testing.T, sites, objects uint8, u, c, skew float64, seed uint64) {
		m, n := 1+int(sites%9), 1+int(objects%40)
		spec := NewZipfSpec(m, n, u, c, skew)
		// Bounds over any draw: the reads total at least M·N and at most
		// M·N·ReadMax, the sizes at most N·(2·mean−1).
		maxReads := float64(m * n * ReadMax)
		maxSizes := float64(n * (2*SizeMean - 1))
		if 1.5*u*maxReads > 1e6 && 1.5*u*float64(m*n) < maxDraws {
			t.Skip("too many updates to draw")
		}
		var (
			p   *core.Problem
			err error
		)
		if skew == 0 {
			p, err = Generate(spec.Spec, seed)
		} else {
			p, err = GenerateZipf(spec, seed)
		}
		badSkew := !(skew >= 0) || math.IsInf(skew, 1)
		if err != nil {
			unfit := func(r, total, limit float64) bool { return !(r >= 0 && 1.5*r*total < limit) }
			if !unfit(u, maxReads, maxDraws) && !unfit(c, maxSizes, 0x1p63) && !badSkew {
				t.Fatalf("M=%d N=%d U=%v C=%v skew=%v rejected: %v", m, n, u, c, skew, err)
			}
			return
		}
		if badSkew {
			t.Fatalf("skew %v accepted", skew)
		}
		load := make([]int64, m)
		var sizes float64
		for k := 0; k < n; k++ {
			load[p.Primary(k)] += p.Size(k)
			sizes += float64(p.Size(k))
			base := u * float64(p.TotalReads(k))
			if w := float64(p.TotalWrites(k)); !(w >= base/2-0.5 && w <= 1.5*base+0.5) {
				t.Fatalf("object %d: %v updates outside U(%v, %v)", k, w, base/2, 1.5*base)
			}
		}
		base := c * sizes
		for i, l := range load {
			// The drawn capacity, unless the site's primaries need more.
			if cp := p.Capacity(i); cp < l || !(float64(cp) >= base/2-0.5 && (cp == l || float64(cp) <= 1.5*base+0.5)) {
				t.Fatalf("site %d: capacity %d outside U(%v, %v) grown to its primaries' %d", i, cp, base/2, 1.5*base, l)
			}
		}
	})
}

// FuzzApplyChange drives ApplyChange with arbitrary ratios and shares over
// one small instance. It must never panic. An accepted spec must have both
// shares in [0,1] and a ratio that adds fewer than maxDraws requests to
// the objects it changed, and a spec that adds fewer whichever objects
// change must be accepted; each change must add Added ≥ 0 requests, all to
// its object's reads (reads-up) or writes (writes-up), no site losing any,
// and every other object's pattern must stay as it was.
func FuzzApplyChange(f *testing.F) {
	f.Add(6.0, 0.3, 0.8, uint64(1))
	f.Add(0.0, 1.0, 0.0, uint64(2))
	f.Add(math.NaN(), 0.3, 0.8, uint64(3))
	f.Add(6.0, math.NaN(), 0.8, uint64(4))
	f.Add(6.0, 0.3, math.NaN(), uint64(5))
	f.Add(math.Inf(1), 0.3, 0.8, uint64(6))
	f.Add(1e300, 0.5, 0.5, uint64(7))
	p, err := Generate(NewSpec(5, 12, 0.05, 0.15), 11)
	if err != nil {
		f.Fatal(err)
	}
	// The fewest and the most requests one changing object has to grow.
	least, busiest := p.TotalReads(0), int64(0)
	for k := 0; k < p.Objects(); k++ {
		least = min(least, p.TotalReads(k), p.TotalWrites(k))
		busiest = max(busiest, p.TotalReads(k), p.TotalWrites(k))
	}
	reads, writes := p.ReadMatrix(), p.WriteMatrix()
	f.Fuzz(func(t *testing.T, ch, objShare, readShare float64, seed uint64) {
		share := func(x float64) bool { return x >= 0 && x <= 1 }
		shares := share(objShare) && share(readShare)
		changing := 0.0
		if shares {
			changing = float64(min(int(objShare*float64(p.Objects())+0.5), p.Objects()))
		}
		upper := ch * changing * float64(busiest)
		if upper > 1e6 && ch*changing*float64(least) < maxDraws {
			t.Skip("too many requests to add")
		}
		next, changes, err := ApplyChange(p, ChangeSpec{Ch: ch, ObjectShare: objShare, ReadShare: readShare}, seed)
		if err != nil {
			if shares && ch >= 0 && upper < maxDraws {
				t.Fatalf("Ch=%v ObjectShare=%v ReadShare=%v rejected: %v", ch, objShare, readShare, err)
			}
			return
		}
		if !shares {
			t.Fatalf("Ch=%v ObjectShare=%v ReadShare=%v accepted", ch, objShare, readShare)
		}
		var reqs float64
		byObject := make(map[int]Change, len(changes))
		for _, c := range changes {
			if c.Added < 0 {
				t.Fatalf("object %d: Added %d", c.Object, c.Added)
			}
			byObject[c.Object] = c
			if c.Direction == readsUp {
				reqs += float64(p.TotalReads(c.Object))
			} else {
				reqs += float64(p.TotalWrites(c.Object))
			}
		}
		if !(ch >= 0 && ch*reqs < maxDraws) {
			t.Fatalf("Ch=%v accepted for %v requests to grow", ch, reqs)
		}
		nr, nw := next.ReadMatrix(), next.WriteMatrix()
		for k := 0; k < p.Objects(); k++ {
			c, changed := byObject[k]
			var grownReads, grownWrites int64
			for i := range reads {
				dr, dw := nr[i][k]-reads[i][k], nw[i][k]-writes[i][k]
				if dr < 0 || dw < 0 {
					t.Fatalf("object %d, site %d: reads %+d, writes %+d", k, i, dr, dw)
				}
				grownReads += dr
				grownWrites += dw
			}
			switch {
			case !changed && grownReads+grownWrites != 0:
				t.Fatalf("unchanged object %d gained %d reads, %d writes", k, grownReads, grownWrites)
			case changed && c.Direction == readsUp && (grownReads != c.Added || grownWrites != 0):
				t.Fatalf("reads-up object %d: reads +%d, writes +%d, Added %d", k, grownReads, grownWrites, c.Added)
			case changed && c.Direction == writesUp && (grownWrites != c.Added || grownReads != 0):
				t.Fatalf("writes-up object %d: reads +%d, writes +%d, Added %d", k, grownReads, grownWrites, c.Added)
			}
		}
	})
}
