package validate

// Count-only kernels for OptimalAOC and ExactOC when no removal rows are
// collected. Discovery reads only whether a candidate is valid and, if so,
// its removal count, so a class is packed into bare (A-rank << 32 | B-rank)
// keys (pairKV's key without the row), sorted with as little work as the
// class needs, and its LNDS is taken as a length straight off the sorted
// keys. Equal keys are interchangeable in a
// count, so dropping the row ids changes none. Before any of that,
// OptimalAOC takes swapMatching's lower bound, which needs no sort at all.

import "aod/internal/partition"

// insertionCutoff is the largest class the count path orders by insertion
// sort; longer classes take the radix sort over their differing digits.
const insertionCutoff = 16

// matchCheckRows is how many rows of one class swapMatching scans between
// budget checks, so a rejection over one huge class (the universe context
// of level 2) stops within a few hundred rows of crossing the budget.
const matchCheckRows = 256

// swapMatching is OptimalAOC's sort-free lower bound on the minimal removal
// count. It walks each class in CSR order and pairs a row with the next row
// of its class whenever the two swap (Def. 2.5) and the first is still
// unmatched. No removal set can keep both rows of a swapped pair, and the
// pairs are disjoint, so every removal set holds at least one row per pair:
// the number of pairs is a lower bound on the count. It checks the bound
// against limit every matchCheckRows rows and at each class end, and once
// the bound exceeds limit it returns it. A swap is a negative product of
// the two rank differences (ranks are dense and non-negative, so the
// product fits an int64), which keeps the scan free of data-dependent
// branches.
func swapMatching(ctx *partition.Stripped, ra, rb []int32, limit int) int {
	pairs := 0
	for ci, nc := 0, ctx.NumClasses(); ci < nc; ci++ {
		cls := ctx.Class(ci)
		pa, pb := int64(ra[cls[0]]), int64(rb[cls[0]])
		open := 1 // 1 while the previous row is unmatched
		for start := 1; start < len(cls); start += matchCheckRows {
			for _, row := range cls[start:min(start+matchCheckRows, len(cls))] {
				a, b := int64(ra[row]), int64(rb[row])
				swap := open & int(uint64((a-pa)*(b-pb))>>63)
				pairs += swap
				open = swap ^ 1
				pa, pb = a, b
			}
			if pairs > limit {
				return pairs
			}
		}
	}
	return pairs
}

// growKeys ensures the count-path scratch holds m keys.
func (v *Validator) growKeys(m int) {
	if cap(v.keys) < m {
		v.keys = make([]uint64, m)
		v.keysTmp = make([]uint64, m)
		v.tails = make([]uint32, m)
	}
}

// loadKeys packs the class rows' (A, B) ranks into v.keys and returns them
// with the OR of every key XOR the first: its set bits are exactly the bit
// positions where the class's keys differ.
func (v *Validator) loadKeys(cls []int32, ra, rb []int32) (keys []uint64, diff uint64) {
	v.growKeys(len(cls))
	keys = v.keys[:len(cls)]
	first := packKey(ra[cls[0]], rb[cls[0]])
	for i, row := range cls {
		k := packKey(ra[row], rb[row])
		keys[i] = k
		diff |= k ^ first
	}
	return keys, diff
}

func packKey(a, b int32) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(b)) }

// sortKeys sorts keys ascending and returns the sorted slice, which is
// either keys or the v.keysTmp scratch. Classes up to insertionCutoff are
// insertion-sorted; longer ones are LSD radix-sorted over only the byte
// positions where diff shows the keys differ, so no counting pass is spent
// on a digit every key shares.
func (v *Validator) sortKeys(keys []uint64, diff uint64) []uint64 {
	if len(keys) <= insertionCutoff {
		for i := 1; i < len(keys); i++ {
			k := keys[i]
			j := i
			for ; j > 0 && keys[j-1] > k; j-- {
				keys[j] = keys[j-1]
			}
			keys[j] = k
		}
		return keys
	}
	src, dst := keys, v.keysTmp[:len(keys)]
	var cnt [256]int32
	for shift := uint(0); diff>>shift != 0; shift += 8 {
		if uint8(diff>>shift) == 0 {
			continue // every key shares this digit: nothing to move
		}
		clear(cnt[:])
		for _, k := range src {
			cnt[uint8(k>>shift)]++
		}
		var sum int32
		for d := range cnt {
			c := cnt[d]
			cnt[d] = sum
			sum += c
		}
		for _, k := range src {
			d := uint8(k >> shift)
			dst[cnt[d]] = k
			cnt[d]++
		}
		src, dst = dst, src
	}
	return src
}

// lndsRemovals returns len(keys) minus the length of a longest
// non-decreasing subsequence of the B halves of the sorted keys — the
// class's minimal removal count (Theorem 3.3). Only the tails of Fredman's
// formulation are kept: no back-pointers, no reconstruction. Once the rows
// seen minus the tails length — a lower bound on the class's count, since
// each later row lengthens the LNDS by at most one — exceeds limit, it stops
// and returns that lower bound.
func (v *Validator) lndsRemovals(keys []uint64, limit int) int {
	tails := v.tails[:len(keys)]
	t := 0
	for i, k := range keys {
		b := uint32(k)
		if t == 0 || b >= tails[t-1] {
			tails[t] = b
			t++
			continue
		}
		// Upper bound over tails[:t-1] (b < tails[t-1]): equal values may
		// extend a subsequence, so b replaces the first strictly larger tail.
		lo, hi := 0, t-1
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if tails[mid] <= b {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		tails[lo] = b
		if i+1-t > limit {
			return i + 1 - t
		}
	}
	return len(keys) - t
}

// pairSwap reports whether rows r0 and r1 form a swap (Def. 2.5), and
// returns them with the row of the smaller A first.
func pairSwap(r0, r1 int32, ra, rb []int32) (lo, hi int32, swap bool) {
	switch {
	case ra[r0] < ra[r1] && rb[r1] < rb[r0]:
		return r0, r1, true
	case ra[r1] < ra[r0] && rb[r0] < rb[r1]:
		return r1, r0, true
	}
	return -1, -1, false
}

// classKeys loads the class's packed keys and sorts them. It reports false
// without sorting when the class holds one A value or one B value: such a
// class has no swap.
func (v *Validator) classKeys(cls []int32, ra, rb []int32) ([]uint64, bool) {
	keys, diff := v.loadKeys(cls, ra, rb)
	if diff>>32 == 0 || uint32(diff) == 0 {
		return nil, false
	}
	return v.sortKeys(keys, diff), true
}

// countRemovals is the minimal removal count of one context class for the
// OC A ∼ B, or a lower bound above limit once the count exceeds it.
func (v *Validator) countRemovals(cls []int32, ra, rb []int32, limit int) int {
	if len(cls) == 2 {
		if _, _, swap := pairSwap(cls[0], cls[1], ra, rb); swap {
			return 1
		}
		return 0
	}
	keys, ok := v.classKeys(cls, ra, rb)
	if !ok {
		return 0
	}
	return v.lndsRemovals(keys, limit)
}

// firstSwap scans keys sorted ascending for the first tuple whose B lies
// below the largest B of a strictly earlier A-group. It returns the key that
// set that largest B (the earliest such) and the offending key.
func firstSwap(keys []uint64) (prev, cur uint64, found bool) {
	var maxPrev uint64
	seen := false
	for i := 1; i < len(keys); i++ {
		if keys[i]>>32 != keys[i-1]>>32 {
			// keys[i-1] closes an A-group and holds its largest B.
			if !seen || uint32(keys[i-1]) > uint32(maxPrev) {
				maxPrev, seen = keys[i-1], true
			}
		}
		if seen && uint32(keys[i]) < uint32(maxPrev) {
			return maxPrev, keys[i], true
		}
	}
	return 0, 0, false
}

// firstRowWithKey returns the first row of cls whose packed key is k.
func firstRowWithKey(cls []int32, ra, rb []int32, k uint64) int32 {
	for _, row := range cls {
		if packKey(ra[row], rb[row]) == k {
			return row
		}
	}
	return -1
}
