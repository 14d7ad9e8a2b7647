// Package bitset provides a dense, fixed-length bit vector.
//
// It backs the genetic-algorithm chromosomes and the replication matrices of
// the DRP solvers, where the hot operations are single-bit tests, flips,
// range copies (crossover), copies between recycled chromosomes and 64-bit
// windows at any offset (column diffs and gathers over site-major genes).
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-length bit vector. The zero value is an empty set of length
// zero; use New to create a set of a given length.
type Set struct {
	words []uint64
	n     int
}

// New returns a Set of length n with all bits cleared.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative length")
	}
	return &Set{
		words: make([]uint64, (n+wordBits-1)/wordBits),
		n:     n,
	}
}

// FromBools builds a Set from a slice of booleans.
func FromBools(vals []bool) *Set {
	s := New(len(vals))
	for i, v := range vals {
		if v {
			s.Set(i)
		}
	}
	return s
}

// Len returns the number of bits in the set.
func (s *Set) Len() int { return s.n }

// Test reports whether bit i is set.
func (s *Set) Test(i int) bool {
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Set sets bit i to 1.
func (s *Set) Set(i int) {
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear sets bit i to 0.
func (s *Set) Clear(i int) {
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Flip inverts bit i and returns its new value.
func (s *Set) Flip(i int) bool {
	s.words[i/wordBits] ^= 1 << (uint(i) % wordBits)
	return s.Test(i)
}

// SetTo sets bit i to v.
func (s *Set) SetTo(i int, v bool) {
	if v {
		s.Set(i)
	} else {
		s.Clear(i)
	}
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	total := 0
	for _, w := range s.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// Clone returns a deep copy of the set.
func (s *Set) Clone() *Set {
	out := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(out.words, s.words)
	return out
}

// CopyFrom overwrites this set's bits with those of other. Both sets must
// have the same length.
func (s *Set) CopyFrom(other *Set) {
	if s.n != other.n {
		panic("bitset: length mismatch in CopyFrom")
	}
	copy(s.words, other.words)
}

// Reset clears every bit.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// SwapRange exchanges bits [from, to) between s and other. The sets must
// have the same length. It is the crossover primitive.
func (s *Set) SwapRange(other *Set, from, to int) {
	if s.n != other.n {
		panic("bitset: length mismatch in SwapRange")
	}
	if from < 0 || to > s.n || from > to {
		panic(fmt.Sprintf("bitset: bad range [%d,%d) for length %d", from, to, s.n))
	}
	for i := from; i < to; {
		w := i / wordBits
		off := uint(i) % wordBits
		span := wordBits - int(off)
		if rem := to - i; rem < span {
			span = rem
		}
		mask := ^uint64(0) >> (wordBits - uint(span)) << off
		diff := (s.words[w] ^ other.words[w]) & mask
		s.words[w] ^= diff
		other.words[w] ^= diff
		i += span
	}
}

// Equal reports whether both sets have identical lengths and bits.
func (s *Set) Equal(other *Set) bool {
	if s.n != other.n {
		return false
	}
	for i, w := range s.words {
		if w != other.words[i] {
			return false
		}
	}
	return true
}

// NextSet returns the index of the first set bit at or after i, or -1 if
// there is none. It allows iterating set bits without testing each index.
func (s *Set) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	w := i / wordBits
	word := s.words[w] >> (uint(i) % wordBits)
	if word != 0 {
		idx := i + bits.TrailingZeros64(word)
		if idx < s.n {
			return idx
		}
		return -1
	}
	for w++; w < len(s.words); w++ {
		if s.words[w] != 0 {
			idx := w*wordBits + bits.TrailingZeros64(s.words[w])
			if idx < s.n {
				return idx
			}
			return -1
		}
	}
	return -1
}

// Word returns the 64 bits of s starting at bit i, bit i in the lowest
// position; bits past Len read as zero. i need not be word-aligned, so a
// caller can read any 64-bit window of a row-major matrix — a gene of a
// chromosome — with one shift and two loads. i must be in [0, Len).
func (s *Set) Word(i int) uint64 {
	w, off := i/wordBits, uint(i)%wordBits
	x := s.words[w] >> off
	if off != 0 && w+1 < len(s.words) {
		x |= s.words[w+1] << (wordBits - off)
	}
	return x
}

// SetWord overwrites the 64 bits of s starting at bit i with x, bit i from
// x's lowest bit. Bits of x that would land past Len are dropped, so the
// set stays well-formed whatever x holds. i must be in [0, Len).
func (s *Set) SetWord(i int, x uint64) {
	if rem := s.n - i; rem < wordBits {
		x &= 1<<uint(rem) - 1
	}
	w, off := i/wordBits, uint(i)%wordBits
	s.words[w] = s.words[w]&(1<<off-1) | x<<off
	if off != 0 && w+1 < len(s.words) {
		s.words[w+1] = s.words[w+1]&^(1<<off-1) | x>>(wordBits-off)
	}
}

// OnesInto appends the indices of all set bits in [from, to) to dst and
// returns the extended slice. It is allocation-free when dst has capacity.
func (s *Set) OnesInto(dst []int, from, to int) []int {
	for i := s.NextSet(from); i >= 0 && i < to; i = s.NextSet(i + 1) {
		dst = append(dst, i)
	}
	return dst
}

// String renders the set as a string of '0'/'1' runes, bit 0 first.
func (s *Set) String() string {
	var b strings.Builder
	b.Grow(s.n)
	for i := 0; i < s.n; i++ {
		if s.Test(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}
