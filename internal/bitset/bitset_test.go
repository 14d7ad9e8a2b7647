package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewIsEmpty(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		s := New(n)
		if s.Len() != n {
			t.Errorf("New(%d).Len() = %d", n, s.Len())
		}
		if s.Count() != 0 {
			t.Errorf("New(%d).Count() = %d, want 0", n, s.Count())
		}
	}
}

func TestSetTestClearFlip(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Test(i) {
			t.Fatalf("bit %d set in fresh set", i)
		}
		s.Set(i)
		if !s.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
		s.Clear(i)
		if s.Test(i) {
			t.Fatalf("bit %d still set after Clear", i)
		}
		if got := s.Flip(i); !got || !s.Test(i) {
			t.Fatalf("Flip(%d) = %v, Test = %v; want true, true", i, got, s.Test(i))
		}
		if got := s.Flip(i); got || s.Test(i) {
			t.Fatalf("second Flip(%d) = %v, Test = %v; want false, false", i, got, s.Test(i))
		}
	}
}

func TestSetTo(t *testing.T) {
	s := New(10)
	s.SetTo(3, true)
	if !s.Test(3) {
		t.Fatal("SetTo(3, true) did not set")
	}
	s.SetTo(3, false)
	if s.Test(3) {
		t.Fatal("SetTo(3, false) did not clear")
	}
}

func TestCount(t *testing.T) {
	s := New(200)
	idx := []int{0, 5, 63, 64, 100, 150, 199}
	for _, i := range idx {
		s.Set(i)
	}
	if got := s.Count(); got != len(idx) {
		t.Fatalf("Count = %d, want %d", got, len(idx))
	}
}

func TestCloneIndependence(t *testing.T) {
	s := New(70)
	s.Set(10)
	c := s.Clone()
	c.Set(20)
	if s.Test(20) {
		t.Fatal("mutating clone affected original")
	}
	if !c.Test(10) {
		t.Fatal("clone lost original bit")
	}
}

func TestCopyFromAndEqual(t *testing.T) {
	a, b := New(100), New(100)
	a.Set(3)
	a.Set(99)
	if a.Equal(b) {
		t.Fatal("different sets reported equal")
	}
	b.CopyFrom(a)
	if !a.Equal(b) {
		t.Fatal("CopyFrom result not equal")
	}
	if !a.Equal(a.Clone()) {
		t.Fatal("clone not equal to source")
	}
	if a.Equal(New(101)) {
		t.Fatal("sets of different lengths reported equal")
	}
}

func TestReset(t *testing.T) {
	s := New(128)
	for i := 0; i < 128; i += 3 {
		s.Set(i)
	}
	s.Reset()
	if s.Count() != 0 {
		t.Fatalf("Count after Reset = %d", s.Count())
	}
}

func TestSwapRange(t *testing.T) {
	a, b := New(130), New(130)
	for i := 0; i < 130; i += 2 {
		a.Set(i) // a = even bits
	}
	for i := 1; i < 130; i += 2 {
		b.Set(i) // b = odd bits
	}
	a.SwapRange(b, 40, 90)
	for i := 0; i < 130; i++ {
		inSwap := i >= 40 && i < 90
		wantA := (i%2 == 0) != inSwap
		if a.Test(i) != wantA {
			t.Fatalf("a bit %d = %v, want %v", i, a.Test(i), wantA)
		}
		wantB := (i%2 == 1) != inSwap
		if b.Test(i) != wantB {
			t.Fatalf("b bit %d = %v, want %v", i, b.Test(i), wantB)
		}
	}
}

func TestSwapRangeEmptyAndFull(t *testing.T) {
	a, b := New(64), New(64)
	a.Set(5)
	b.Set(6)
	a.SwapRange(b, 10, 10) // empty range: no-op
	if !a.Test(5) || !b.Test(6) || a.Test(6) || b.Test(5) {
		t.Fatal("empty SwapRange changed bits")
	}
	a.SwapRange(b, 0, 64)
	if !a.Test(6) || !b.Test(5) || a.Test(5) || b.Test(6) {
		t.Fatal("full SwapRange did not exchange bits")
	}
}

func TestSwapRangeIsInvolution(t *testing.T) {
	f := func(seed int64, fromRaw, toRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 150
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				a.Set(i)
			}
			if rng.Intn(2) == 0 {
				b.Set(i)
			}
		}
		from := int(fromRaw) % (n + 1)
		to := int(toRaw) % (n + 1)
		if from > to {
			from, to = to, from
		}
		ac, bc := a.Clone(), b.Clone()
		a.SwapRange(b, from, to)
		a.SwapRange(b, from, to)
		return a.Equal(ac) && b.Equal(bc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNextSet(t *testing.T) {
	s := New(200)
	for _, i := range []int{3, 64, 130, 199} {
		s.Set(i)
	}
	tests := []struct{ from, want int }{
		{0, 3}, {3, 3}, {4, 64}, {64, 64}, {65, 130}, {131, 199}, {199, 199}, {-5, 3},
	}
	for _, tt := range tests {
		if got := s.NextSet(tt.from); got != tt.want {
			t.Errorf("NextSet(%d) = %d, want %d", tt.from, got, tt.want)
		}
	}
	if got := s.NextSet(200); got != -1 {
		t.Errorf("NextSet past end = %d, want -1", got)
	}
	if got := New(10).NextSet(0); got != -1 {
		t.Errorf("NextSet on empty = %d, want -1", got)
	}
}

func TestNextSetEnumeratesAll(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(300)
		want := make([]int, 0)
		for i := 0; i < 300; i++ {
			if rng.Intn(4) == 0 {
				s.Set(i)
				want = append(want, i)
			}
		}
		got := s.OnesInto(nil, 0, 300)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFromBoolsAndString(t *testing.T) {
	s := FromBools([]bool{true, false, true, true})
	if got := s.String(); got != "1011" {
		t.Fatalf("String() = %q, want 1011", got)
	}
	if s.Count() != 3 {
		t.Fatalf("Count = %d, want 3", s.Count())
	}
}

func TestPanics(t *testing.T) {
	assertPanics := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	assertPanics("New(-1)", func() { New(-1) })
	assertPanics("SwapRange length mismatch", func() { New(10).SwapRange(New(11), 0, 5) })
	assertPanics("CopyFrom length mismatch", func() { New(10).CopyFrom(New(11)) })
	assertPanics("SwapRange out of bounds", func() { New(10).SwapRange(New(10), 0, 11) })
}
