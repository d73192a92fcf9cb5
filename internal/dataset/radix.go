package dataset

import "math"

// rankKeys ranks rows by order-preserving uint64 keys without a map: an LSD
// byte-radix sorts the keys together with their row ids, skipping every
// digit in which no two keys differ (dense value ranges rarely touch the
// high bytes), and one walk over the sorted keys assigns dense ranks. It
// returns each row's rank and, per rank, the first row holding it — the sort
// is stable, so that is the first occurrence in row order. keys is reordered.
//
// Column construction ranks every column once, and on wide tables that was
// the dominant cost of building a table: a hash map from value to rank cost
// two probes a row, this costs a few sequential passes.
func rankKeys(keys []uint64) (ranks, firsts []int32) {
	n := len(keys)
	ranks = make([]int32, n)
	if n == 0 {
		return ranks, nil
	}
	rows := make([]int32, n)
	var diff uint64
	for i, k := range keys {
		rows[i] = int32(i)
		diff |= k ^ keys[0]
	}
	if diff != 0 {
		tmpKeys, tmpRows := make([]uint64, n), make([]int32, n)
		var cnt [256]int
		for shift := uint(0); shift < 64; shift += 8 {
			if uint8(diff>>shift) == 0 {
				continue // every key shares this digit: nothing to move
			}
			clear(cnt[:])
			for _, k := range keys {
				cnt[uint8(k>>shift)]++
			}
			sum := 0
			for d, c := range cnt {
				cnt[d] = sum
				sum += c
			}
			for i, k := range keys {
				d := uint8(k >> shift)
				p := cnt[d]
				tmpKeys[p], tmpRows[p] = k, rows[i]
				cnt[d]++
			}
			keys, tmpKeys = tmpKeys, keys
			rows, tmpRows = tmpRows, rows
		}
	}
	distinct := 1
	for i := 1; i < n; i++ {
		if keys[i] != keys[i-1] {
			distinct++
		}
	}
	firsts = make([]int32, 0, distinct)
	r := int32(-1)
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			r++
			firsts = append(firsts, rows[i])
		}
		ranks[rows[i]] = r
	}
	return ranks, firsts
}

// intKey maps an int64 to an unsigned key in the same order: flipping the
// sign bit makes unsigned order match signed order.
func intKey(v int64) uint64 { return uint64(v) ^ (1 << 63) }

// floatKey maps a float64 to an unsigned key in the column order. Every NaN
// maps to 0, below -Inf, so NaNs share the lowest rank; -0 and +0 share one
// key, so they share a rank. Other values reflect their IEEE-754 pattern:
// non-negative floats set the sign bit, negative floats flip every bit.
func floatKey(f float64) uint64 {
	switch {
	case f != f:
		return 0
	case f == 0:
		return 1 << 63
	}
	b := math.Float64bits(f)
	if b&(1<<63) != 0 {
		return ^b
	}
	return b | 1<<63
}
