// Package lattice implements the set-based attribute lattice that the
// discovery framework (Sec. 3.1, after FASTOD [Szlichta et al. 2017])
// traverses level-wise: attribute sets as bitsets, candidate pair sets for
// order compatibility, and lattice nodes carrying the validity state that
// drives axiom-based pruning.
package lattice

import (
	"math/bits"
	"strings"
)

// MaxAttrs is the maximum number of attributes supported by the bitset
// representation.
const MaxAttrs = 64

// AttrSet is a set of attribute indexes 0..63 packed into a bitmask.
type AttrSet uint64

// NewAttrSet builds a set from attribute indexes.
func NewAttrSet(attrs ...int) AttrSet {
	var s AttrSet
	for _, a := range attrs {
		s |= 1 << uint(a)
	}
	return s
}

// Has reports whether attribute a is in the set.
func (s AttrSet) Has(a int) bool { return s&(1<<uint(a)) != 0 }

// Add returns s ∪ {a}.
func (s AttrSet) Add(a int) AttrSet { return s | 1<<uint(a) }

// Remove returns s \ {a}.
func (s AttrSet) Remove(a int) AttrSet { return s &^ (1 << uint(a)) }

// Union returns s ∪ t.
func (s AttrSet) Union(t AttrSet) AttrSet { return s | t }

// Intersect returns s ∩ t.
func (s AttrSet) Intersect(t AttrSet) AttrSet { return s & t }

// Minus returns s \ t.
func (s AttrSet) Minus(t AttrSet) AttrSet { return s &^ t }

// Card returns |s|.
func (s AttrSet) Card() int { return bits.OnesCount64(uint64(s)) }

// IsEmpty reports whether the set is empty.
func (s AttrSet) IsEmpty() bool { return s == 0 }

// Contains reports whether t ⊆ s.
func (s AttrSet) Contains(t AttrSet) bool { return t&^s == 0 }

// Min returns the smallest attribute in the set, or -1 if empty.
func (s AttrSet) Min() int {
	if s == 0 {
		return -1
	}
	return bits.TrailingZeros64(uint64(s))
}

// Max returns the largest attribute in the set, or -1 if empty.
func (s AttrSet) Max() int {
	if s == 0 {
		return -1
	}
	return 63 - bits.LeadingZeros64(uint64(s))
}

// Attrs returns the attribute indexes in ascending order.
func (s AttrSet) Attrs() []int {
	return s.AppendAttrs(make([]int, 0, s.Card()))
}

// AppendAttrs appends the attribute indexes in ascending order to dst and
// returns the extended slice. With a [MaxAttrs]int buffer behind dst it
// allocates nothing.
func (s AttrSet) AppendAttrs(dst []int) []int {
	for t := s; t != 0; {
		a := bits.TrailingZeros64(uint64(t))
		dst = append(dst, a)
		t &= t - 1
	}
	return dst
}

// ForEach calls fn for every attribute in ascending order.
func (s AttrSet) ForEach(fn func(a int)) {
	for t := s; t != 0; {
		a := bits.TrailingZeros64(uint64(t))
		fn(a)
		t &= t - 1
	}
}

// String renders the set as "{0,2,5}".
func (s AttrSet) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	s.ForEach(func(a int) {
		if !first {
			sb.WriteByte(',')
		}
		first = false
		sb.WriteString(itoa(a))
	})
	sb.WriteByte('}')
	return sb.String()
}

// Format renders the set using column names, e.g. "{pos,exp}".
func (s AttrSet) Format(names []string) string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	s.ForEach(func(a int) {
		if !first {
			sb.WriteByte(',')
		}
		first = false
		if a < len(names) {
			sb.WriteString(names[a])
		} else {
			sb.WriteString(itoa(a))
		}
	})
	sb.WriteByte('}')
	return sb.String()
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
