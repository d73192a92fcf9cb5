package validate

import (
	"sort"
	"sync"

	"aod/internal/dataset"
)

// TableOrders caches, per attribute, the permutation of all rows sorted by
// the attribute's ranks (ties by row id) — the "sorted partition" device of
// the set-based framework [9]: with the global order precomputed once per
// attribute, an exact OC candidate can be checked by a single linear scan,
// with no per-candidate sorting. It is safe for concurrent use: each order
// is built once, however many engines ask for it.
type TableOrders struct {
	tbl    *dataset.Table
	orders []tableOrder
}

type tableOrder struct {
	once sync.Once
	rows []int32
}

// NewTableOrders returns a lazy per-attribute order cache for the table.
func NewTableOrders(tbl *dataset.Table) *TableOrders {
	return &TableOrders{tbl: tbl, orders: make([]tableOrder, tbl.NumCols())}
}

// Order returns rows sorted ascending by attribute a's ranks (ties by row
// id), computing and caching it on first use. Orders are built with a stable
// LSD radix over the dense ranks (comparison sort below the usual cutoff),
// cutting the cold-start cost on wide tables from O(cols · n log n) to
// O(cols · n).
func (to *TableOrders) Order(a int) []int32 {
	o := &to.orders[a]
	o.once.Do(func() { o.rows = sortRowsByRank(to.tbl.Column(a)) })
	return o.rows
}

func sortRowsByRank(col *dataset.Column) []int32 {
	n := col.Len()
	ranks := col.Ranks()
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	if n < radixCutoff {
		sort.SliceStable(order, func(i, j int) bool { return ranks[order[i]] < ranks[order[j]] })
		return order
	}
	return radixSortRowsByRank(order, make([]int32, n), ranks, int32(col.NumDistinct()-1))
}

// scanScratch holds the stamped per-class state for ExactOCScan. Two
// monotone counters avoid O(classes) resets: epoch identifies the current
// call (validity of maxPrev), gen identifies the current A-group (validity
// of the pending group maximum).
type scanScratch struct {
	epoch      int32
	gen        int32
	stamp      []int32 // per class: epoch when maxPrev became valid
	maxPrev    []int32 // per class: max B over strictly earlier A-groups
	maxPrevRow []int32
	groupStamp []int32 // per class: gen when the pending group max was set
	groupMax   []int32
	groupRow   []int32
	touched    []int32 // classes touched in the current A-group
}

func (s *scanScratch) reset(numClasses int) {
	if cap(s.stamp) < numClasses {
		s.stamp = make([]int32, numClasses)
		s.maxPrev = make([]int32, numClasses)
		s.maxPrevRow = make([]int32, numClasses)
		s.groupStamp = make([]int32, numClasses)
		s.groupMax = make([]int32, numClasses)
		s.groupRow = make([]int32, numClasses)
	}
	s.stamp = s.stamp[:numClasses]
	s.maxPrev = s.maxPrev[:numClasses]
	s.maxPrevRow = s.maxPrevRow[:numClasses]
	s.groupStamp = s.groupStamp[:numClasses]
	s.groupMax = s.groupMax[:numClasses]
	s.groupRow = s.groupRow[:numClasses]
	s.epoch++
	s.gen++
	if s.epoch <= 0 || s.gen <= 0 { // wrapped: hard reset over the full capacity
		clear(s.stamp[:cap(s.stamp)])
		clear(s.groupStamp[:cap(s.groupStamp)])
		s.epoch, s.gen = 1, 1
	}
	s.touched = s.touched[:0]
}

// ExactOCScan verifies the exact canonical OC X: A ∼ B in a single O(n)
// pass over the precomputed global A-order, given the per-row class ids of
// the context partition (see partition.Stripped.ClassIDs; singleton rows are
// -1 and skipped). It is equivalent to Validator.ExactOC — the sorted-scan
// route trades the per-candidate class sort for a full-table scan, winning
// when the context's non-singleton coverage is large.
func (v *Validator) ExactOCScan(classIDs []int32, numClasses int, orderA []int32, a, b *dataset.Column) (bool, [2]int32) {
	ra, rb := a.Ranks(), b.Ranks()
	s := &v.scan
	s.reset(numClasses)
	prevA := int32(-1)
	for _, row := range orderA {
		c := classIDs[row]
		if c < 0 {
			continue
		}
		if ra[row] != prevA {
			// A-group boundary: fold the previous group's maxima into the
			// strict-predecessor state and open a new group generation.
			for _, tc := range s.touched {
				if s.stamp[tc] != s.epoch || s.groupMax[tc] > s.maxPrev[tc] {
					s.maxPrev[tc] = s.groupMax[tc]
					s.maxPrevRow[tc] = s.groupRow[tc]
					s.stamp[tc] = s.epoch
				}
			}
			s.touched = s.touched[:0]
			s.gen++
			prevA = ra[row]
		}
		if s.stamp[c] == s.epoch && rb[row] < s.maxPrev[c] {
			return false, [2]int32{s.maxPrevRow[c], row}
		}
		if s.groupStamp[c] != s.gen {
			// First touch of this class within the current A-group.
			s.groupStamp[c] = s.gen
			s.groupMax[c] = rb[row]
			s.groupRow[c] = row
			s.touched = append(s.touched, c)
		} else if rb[row] > s.groupMax[c] {
			s.groupMax[c] = rb[row]
			s.groupRow[c] = row
		}
	}
	return true, [2]int32{-1, -1}
}
