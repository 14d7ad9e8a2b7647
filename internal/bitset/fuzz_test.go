package bitset

// FuzzBitsetOps drives two Sets through an arbitrary op stream while
// mirroring every mutation in plain []bool models, then compares the whole
// observable API surface. The word-packed arithmetic (masks at word
// boundaries, spans, trailing-zero scans, unaligned word windows) is
// exactly the code a table-driven test tends to under-exercise.

import (
	"testing"
)

func FuzzBitsetOps(f *testing.F) {
	f.Add(uint8(63), []byte{0, 5, 0, 2, 9, 0, 4, 10, 60})
	f.Add(uint8(1), []byte{2, 0, 0})
	f.Add(uint8(130), []byte{0, 64, 0, 4, 0, 129, 3, 65, 1})
	f.Add(uint8(129), []byte{8, 60, 200, 8, 127, 3, 8, 0, 255})
	f.Fuzz(func(t *testing.T, size uint8, ops []byte) {
		n := int(size)%130 + 1 // spans one, two and three words
		a, b := New(n), New(n)
		ma, mb := make([]bool, n), make([]bool, n)
		for j := 0; j+2 < len(ops); j += 3 {
			op, x, y := ops[j]%9, int(ops[j+1]), int(ops[j+2])
			i := x % n
			switch op {
			case 0:
				a.Set(i)
				ma[i] = true
			case 1:
				a.Clear(i)
				ma[i] = false
			case 2:
				got := a.Flip(i)
				ma[i] = !ma[i]
				if got != ma[i] {
					t.Fatalf("Flip(%d) returned %v, model says %v", i, got, ma[i])
				}
			case 3:
				v := y%2 == 1
				a.SetTo(i, v)
				ma[i] = v
			case 4:
				lo, hi := x%(n+1), y%(n+1)
				if lo > hi {
					lo, hi = hi, lo
				}
				a.SwapRange(b, lo, hi)
				for p := lo; p < hi; p++ {
					ma[p], mb[p] = mb[p], ma[p]
				}
			case 5:
				a.CopyFrom(b)
				copy(ma, mb)
			case 6:
				a.Reset()
				for p := range ma {
					ma[p] = false
				}
			case 7:
				b.SetTo(i, y%2 == 0)
				mb[i] = y%2 == 0
			case 8:
				// A multiplicative hash spreads the byte over the word.
				w := uint64(y+1) * 0x9E3779B97F4A7C15
				a.SetWord(i, w)
				for p := i; p < n && p < i+64; p++ {
					ma[p] = w>>uint(p-i)&1 == 1
				}
			}
		}
		for name, pair := range map[string]struct {
			s *Set
			m []bool
		}{"a": {a, ma}, "b": {b, mb}} {
			s, m := pair.s, pair.m
			count := 0
			for i, v := range m {
				if s.Test(i) != v {
					t.Fatalf("%s: bit %d is %v, model says %v", name, i, s.Test(i), v)
				}
				if v {
					count++
				}
			}
			if s.Count() != count {
				t.Fatalf("%s: Count %d, model says %d", name, s.Count(), count)
			}
			if !s.Equal(FromBools(m)) {
				t.Fatalf("%s: Equal(FromBools(model)) is false", name)
			}
			if !s.Clone().Equal(s) {
				t.Fatalf("%s: clone differs", name)
			}
			// NextSet chain enumerates exactly the model's set bits.
			want := make([]int, 0, count)
			for i, v := range m {
				if v {
					want = append(want, i)
				}
			}
			got := s.OnesInto(nil, 0, n)
			if len(got) != len(want) {
				t.Fatalf("%s: OnesInto found %d bits, model has %d", name, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: OnesInto[%d]=%d, model says %d", name, i, got[i], want[i])
				}
			}
			// Word reads the model's 64-bit window at every offset.
			for i := 0; i < n; i++ {
				var want uint64
				for p := i; p < n && p < i+64; p++ {
					if m[p] {
						want |= 1 << uint(p-i)
					}
				}
				if got := s.Word(i); got != want {
					t.Fatalf("%s: Word(%d) = %#x, model says %#x", name, i, got, want)
				}
			}
			if idx := s.NextSet(n - 1); count > 0 && m[n-1] {
				if idx != n-1 {
					t.Fatalf("%s: NextSet(n-1)=%d with last bit set", name, idx)
				}
			}
		}
	})
}
