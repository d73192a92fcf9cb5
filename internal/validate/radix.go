package validate

import "slices"

// pairKV packs one tuple's composite sort key with its row id. The key is
// (A-rank << 32) | B-key, so ascending key order is exactly the
// [A asc, B asc] (or, with a flipped B-key, [A asc, B desc]) tuple order
// every validator needs. Rank values fit in 31 bits (ranks are dense in
// [0, rows)), so the packing is lossless.
type pairKV struct {
	key uint64
	row int32
}

// radixCutoff is the class size below which the LSD radix sort loses to a
// comparison sort's lower constant factor.
const radixCutoff = 64

// sortPairs sorts v.kv[:m] ascending by key. Ties (equal (A,B) projections)
// are broken by ascending row id in both branches: the comparison fallback
// compares rows explicitly, and the LSD radix sort is stable over the
// initially row-ascending load order — so the result is identical and fully
// deterministic either way.
func (v *Validator) sortPairs(m int, maxKey uint64) {
	kv := v.kv[:m]
	if m <= radixCutoff {
		slices.SortFunc(kv, func(x, y pairKV) int {
			switch {
			case x.key < y.key:
				return -1
			case x.key > y.key:
				return 1
			case x.row < y.row:
				return -1
			case x.row > y.row:
				return 1
			}
			return 0
		})
		return
	}
	src, dst := kv, v.kvTmp[:m]
	swapped := false
	var cnt [256]int32
	for shift := uint(0); maxKey>>shift != 0; shift += 8 {
		clear(cnt[:])
		for i := range src {
			cnt[uint8(src[i].key>>shift)]++
		}
		if cnt[uint8(src[0].key>>shift)] == int32(m) {
			continue // every key shares this digit: nothing to move
		}
		var sum int32
		for d := range cnt {
			c := cnt[d]
			cnt[d] = sum
			sum += c
		}
		for i := range src {
			d := uint8(src[i].key >> shift)
			dst[cnt[d]] = src[i]
			cnt[d]++
		}
		src, dst = dst, src
		swapped = !swapped
	}
	if swapped {
		// An odd number of scatter passes left the result in kvTmp's backing
		// array; swap the scratch headers instead of copying.
		v.kv, v.kvTmp = v.kvTmp, v.kv
	}
}

// radixSortRowsByRank stably sorts order (row ids, loaded ascending) by
// ranks[row] with an LSD byte-radix over the int32 rank keys — the
// cold-start path behind TableOrders: building a global per-attribute order
// with a comparison sort dominated sorted-scan startup on wide tables. Ranks
// are dense in [0, maxRank], so constant high bytes are skipped. Stability
// over the ascending load order keeps ties in row order, exactly like the
// comparison sort it replaces. Returns the sorted slice (which may be the
// scratch buffer).
func radixSortRowsByRank(order, tmp []int32, ranks []int32, maxRank int32) []int32 {
	n := len(order)
	src, dst := order, tmp
	var cnt [256]int32
	for shift := uint(0); shift < 32 && maxRank>>shift != 0; shift += 8 {
		clear(cnt[:])
		for _, row := range src {
			cnt[uint8(ranks[row]>>shift)]++
		}
		if cnt[uint8(ranks[src[0]]>>shift)] == int32(n) {
			continue // every key shares this digit: nothing to move
		}
		var sum int32
		for d := range cnt {
			c := cnt[d]
			cnt[d] = sum
			sum += c
		}
		for _, row := range src {
			d := uint8(ranks[row] >> shift)
			dst[cnt[d]] = row
			cnt[d]++
		}
		src, dst = dst, src
	}
	return src
}

// grow ensures the per-class scratch holds m tuples.
func (v *Validator) grow(m int) {
	if cap(v.kv) < m {
		v.kv = make([]pairKV, m)
		v.kvTmp = make([]pairKV, m)
		v.a = make([]int32, m)
		v.b = make([]int32, m)
		v.rows = make([]int32, m)
	}
}

// loadPairs fills v.kv with the class rows' keys and returns the maximum key
// (bounding the radix passes). flip is the B-key reflection base for the
// descending tie order (B-rank r maps to flip-r); ignored when !bDesc.
func (v *Validator) loadPairs(cls []int32, ra, rb []int32, bDesc bool, flip int32) uint64 {
	v.grow(len(cls))
	var maxKey uint64
	if bDesc {
		for i, row := range cls {
			k := packKey(ra[row], flip-rb[row])
			v.kv[i] = pairKV{key: k, row: row}
			if k > maxKey {
				maxKey = k
			}
		}
	} else {
		for i, row := range cls {
			k := packKey(ra[row], rb[row])
			v.kv[i] = pairKV{key: k, row: row}
			if k > maxKey {
				maxKey = k
			}
		}
	}
	return maxKey
}

// decodePairs unpacks the sorted keys into the v.a / v.b / v.rows
// projections the validators consume.
func (v *Validator) decodePairs(m int, bDesc bool, flip int32) {
	v.a, v.b, v.rows = v.a[:m], v.b[:m], v.rows[:m]
	for i := 0; i < m; i++ {
		kv := v.kv[i]
		v.a[i] = int32(kv.key >> 32)
		bb := int32(uint32(kv.key))
		if bDesc {
			bb = flip - bb
		}
		v.b[i] = bb
		v.rows[i] = kv.row
	}
}

// sortClass orders the class by [A asc, B asc] (or [A asc, B desc] when
// bDesc) into v.a / v.b / v.rows — the allocation-free replacement for the
// interface-based sort.Sort(&pairSorter{...}) of the pre-radix validators.
func (v *Validator) sortClass(cls []int32, ra, rb []int32, bDesc bool, flip int32) {
	maxKey := v.loadPairs(cls, ra, rb, bDesc, flip)
	v.sortPairs(len(cls), maxKey)
	v.decodePairs(len(cls), bDesc, flip)
}
