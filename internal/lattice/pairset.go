package lattice

import "math/bits"

// PairIndex maps an unordered attribute pair {a,b} (a ≠ b) over a schema of
// numAttrs attributes to a dense triangular index in
// [0, numAttrs·(numAttrs−1)/2).
func PairIndex(a, b, numAttrs int) int {
	if a > b {
		a, b = b, a
	}
	// Row a of the strictly-upper-triangular matrix starts after
	// a*numAttrs - a(a+1)/2 cells.
	return a*numAttrs - a*(a+1)/2 + (b - a - 1)
}

// NumPairs returns the number of unordered attribute pairs for a schema.
func NumPairs(numAttrs int) int { return numAttrs * (numAttrs - 1) / 2 }

// PairSet is a bitset over unordered attribute pairs of a fixed schema width.
type PairSet struct {
	bits     []uint64
	numAttrs int
}

// NewPairSet returns an empty pair set for a schema of numAttrs attributes.
func NewPairSet(numAttrs int) *PairSet {
	n := NumPairs(numAttrs)
	return &PairSet{bits: make([]uint64, (n+63)/64), numAttrs: numAttrs}
}

// Clone returns a deep copy.
func (p *PairSet) Clone() *PairSet {
	out := &PairSet{bits: make([]uint64, len(p.bits)), numAttrs: p.numAttrs}
	copy(out.bits, p.bits)
	return out
}

// Add inserts the pair {a,b}.
func (p *PairSet) Add(a, b int) {
	i := PairIndex(a, b, p.numAttrs)
	p.bits[i>>6] |= 1 << uint(i&63)
}

// Remove deletes the pair {a,b}.
func (p *PairSet) Remove(a, b int) {
	i := PairIndex(a, b, p.numAttrs)
	p.bits[i>>6] &^= 1 << uint(i&63)
}

// Has reports whether the pair {a,b} is present.
func (p *PairSet) Has(a, b int) bool {
	i := PairIndex(a, b, p.numAttrs)
	return p.bits[i>>6]&(1<<uint(i&63)) != 0
}

// UnionWith adds every pair of q to p.
func (p *PairSet) UnionWith(q *PairSet) {
	for i := range p.bits {
		p.bits[i] |= q.bits[i]
	}
}

// Words exposes the underlying bit words (triangular pair indexes packed 64
// per word). The slice is shared, not copied: it is the zero-cost
// serialization surface for shipping validity state to remote shard workers,
// and callers must treat it as read-only unless they own the set.
func (p *PairSet) Words() []uint64 { return p.bits }

// PairHas reports whether the pair {a,b} is present in raw pair-set words
// (see Words), without constructing a PairSet. Words beyond the slice are
// treated as zero, so truncated (omitempty-serialized) word slices read
// correctly.
func PairHas(words []uint64, a, b, numAttrs int) bool {
	i := PairIndex(a, b, numAttrs)
	return i>>6 < len(words) && words[i>>6]&(1<<uint(i&63)) != 0
}

// Count returns the number of pairs present.
func (p *PairSet) Count() int {
	c := 0
	for _, w := range p.bits {
		c += bits.OnesCount64(w)
	}
	return c
}

// IsEmpty reports whether no pair is present.
func (p *PairSet) IsEmpty() bool {
	for _, w := range p.bits {
		if w != 0 {
			return false
		}
	}
	return true
}

// ForEach calls fn(a, b) with a < b for every pair present, in index order.
func (p *PairSet) ForEach(fn func(a, b int)) {
	// Reconstruct (a, b) from the triangular index by walking rows.
	for w := range p.bits {
		word := p.bits[w]
		for word != 0 {
			bit := bits.TrailingZeros64(word)
			word &= word - 1
			idx := w<<6 + bit
			a, b := pairFromIndex(idx, p.numAttrs)
			fn(a, b)
		}
	}
}

func pairFromIndex(idx, numAttrs int) (int, int) {
	a := 0
	for {
		rowLen := numAttrs - a - 1
		if idx < rowLen {
			return a, a + 1 + idx
		}
		idx -= rowLen
		a++
	}
}
