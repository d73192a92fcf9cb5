// Package validate implements the candidate-validation algorithms of the
// paper: exact order-compatibility (OC) and order-functional-dependency (OFD)
// checks, the quadratic iterative approximate-OC validator of Szlichta et al.
// that the paper improves upon (Algorithm 1), the paper's optimal LNDS-based
// validator (Algorithm 2, Theorems 3.3/3.4), the linear approximate-OFD
// validator of TANE [Huhtala et al. 1999], and the Section 3.3 extension to
// list-based approximate ODs.
//
// All validators take a context as a stripped partition (Π_X) plus
// rank-encoded columns; tuples in different context classes are independent
// (see the proof of Theorem 3.3), and stripped singleton classes can contain
// neither swaps nor splits, so operating on stripped partitions is exact.
//
// The hot path is allocation-free in steady state and comes in two forms.
// Discovery needs only whether a candidate holds and, if it does, its
// removal count, and OptimalAOC, ApproxOFD and ExactOC compute just that
// when no removal rows are asked for. They decide a two-row class with one
// comparison; OptimalAOC and ExactOC sort longer classes as bare packed
// (A-rank, B-rank) keys — insertion sort up to 16 rows, above that an LSD
// radix over only the bytes where the class's keys differ — and take the
// LNDS as a length over its tails (count.go). Unless the full error is
// asked for, the count stops once it passes the removal budget, and
// OptimalAOC first takes a sort-free lower bound (swapMatching): walking
// each class in CSR order, it pairs a row with the next one whenever the two
// swap and the first is still unmatched. No removal set keeps both rows of a
// swapped pair and the pairs are disjoint, so their number bounds the
// minimal count from below; once it passes the budget the candidate is
// rejected without sorting any class. It changes no validity decision, only
// an aborted result's lower bound.
//
// Callers that collect removal rows (repair, the public Validate* calls,
// removal sets in reports) take the sorting path instead: (key, row) pairs
// radix-sorted stably, with a comparison sort below 64 rows (radix.go), and
// one LNDS reconstructed with a lis.Scratch, so a removal set names the
// same rows on every run.
package validate

import (
	"fmt"
	"math"
	"sync"

	"aod/internal/dataset"
	"aod/internal/lis"
	"aod/internal/partition"
)

// Options configures a validation call.
type Options struct {
	// Threshold is the approximation threshold ε ∈ [0, 1]: the candidate is
	// valid iff its approximation factor e = |minimal removal|/|r| ≤ ε.
	Threshold float64
	// CollectRemovals requests the removal-set row ids in Result.RemovalRows.
	CollectRemovals bool
	// ComputeFullError forces computation of the exact approximation factor
	// even after the threshold is exceeded (no early abort). The iterative
	// algorithm's "INVALID" early exit (Algorithm 1 line 14) is faithful to
	// the paper when this is false.
	ComputeFullError bool
}

// Result reports the outcome of validating one candidate.
type Result struct {
	// Valid is whether e ≤ ε.
	Valid bool
	// Removals is the size of the removal set found. For the optimal
	// validator this is the minimal removal set size; for the iterative one
	// it may overestimate. If the validator aborted early (threshold crossed
	// and !ComputeFullError), Removals is a lower bound.
	Removals int
	// Error is Removals/|r| (the approximation factor e, or its lower bound
	// after an early abort).
	Error float64
	// Aborted reports that validation stopped as soon as the threshold was
	// exceeded, so Removals/Error are lower bounds.
	Aborted bool
	// RemovalRows holds the rows of the removal set when requested and the
	// validation ran to completion.
	RemovalRows []int32
}

// removalBudget is the largest removal count still within the threshold,
// consistent with finish()'s validity test (the small epsilon absorbs float
// artifacts like 4.0/9*9 = 3.999…).
func removalBudget(threshold float64, n int) int {
	return int(math.Floor(threshold*float64(n) + 1e-9))
}

// finish packs a validation outcome. A table with no rows has nothing to
// remove, so its factor is 0, not 0/0.
func finish(removals int, n int, opts Options, aborted bool, rows []int32) Result {
	e := 0.0
	if n > 0 {
		e = float64(removals) / float64(n)
	}
	return Result{
		Valid:       !aborted && e <= opts.Threshold+1e-12,
		Removals:    removals,
		Error:       e,
		Aborted:     aborted,
		RemovalRows: rows,
	}
}

// Validator holds reusable scratch buffers so discovery loops do not
// reallocate per candidate. A zero Validator is ready to use. Validators are
// not safe for concurrent use.
type Validator struct {
	// a, b, rows are the per-position projections of the current class in
	// sorted order (see sortClass).
	a, b []int32
	rows []int32
	// kv, kvTmp are the radix-sort key buffers of the sorting path (radix.go).
	kv, kvTmp []pairKV
	// keys, keysTmp and tails are the count-only kernels' key buffers and
	// LNDS tails (count.go).
	keys, keysTmp []uint64
	tails         []uint32
	freq          []int32
	scan          scanScratch
	lnds          lis.Scratch
	// inv and alive are the iterative validator's per-class scratch: swap
	// counts (Fenwick-backed) and the greedy removal's liveness markers.
	inv   lis.InvScratch
	alive []bool
}

// New returns a Validator with empty scratch space.
func New() *Validator { return &Validator{} }

// ExactOC verifies the exact canonical OC X: A ∼ B (Def. 2.10) over the
// context partition ctx. It returns whether the OC holds and, when it does
// not, one witness swap (a pair of row ids violating Def. 2.5). Runtime is
// O(‖ctx‖ log m) from sorting within classes, on the count-only kernels
// (count.go): a swap exists iff some tuple's B is below the largest B of a
// strictly earlier A-group, and the witness is the first row of each of the
// two offending (A, B) values.
func (v *Validator) ExactOC(ctx *partition.Stripped, a, b *dataset.Column) (holds bool, witness [2]int32) {
	ra, rb := a.Ranks(), b.Ranks()
	for ci, nc := 0, ctx.NumClasses(); ci < nc; ci++ {
		cls := ctx.Class(ci)
		if len(cls) == 2 {
			if lo, hi, swap := pairSwap(cls[0], cls[1], ra, rb); swap {
				return false, [2]int32{lo, hi}
			}
			continue
		}
		keys, ok := v.classKeys(cls, ra, rb)
		if !ok {
			continue
		}
		if prev, cur, found := firstSwap(keys); found {
			return false, [2]int32{firstRowWithKey(cls, ra, rb, prev), firstRowWithKey(cls, ra, rb, cur)}
		}
	}
	return true, [2]int32{-1, -1}
}

// collectRemoved appends the rows outside keep (ascending positions into the
// sorted class) to removed.
func (v *Validator) collectRemoved(m int, keep []int32, removed []int32) []int32 {
	k := 0
	for i := 0; i < m; i++ {
		if k < len(keep) && int(keep[k]) == i {
			k++
			continue
		}
		removed = append(removed, v.rows[i])
	}
	return removed
}

// OptimalAOC is Algorithm 2 of the paper: validate the approximate canonical
// OC X: A ∼ B in O(n log n) with a guaranteed-minimal removal set
// (Theorem 3.3). Per context class, tuples are ordered by [A asc, B asc] and
// the tuples outside one longest non-decreasing subsequence of the
// B-projection form the class's minimal removal set.
//
// Without opts.CollectRemovals only the count is needed, and the count-only
// kernels (count.go) compute it; unless opts.ComputeFullError is set they
// stop, inside a class if need be, as soon as the count exceeds the budget,
// and first take swapMatching's sort-free lower bound, which rejects most
// invalid candidates before any class is sorted.
func (v *Validator) OptimalAOC(ctx *partition.Stripped, a, b *dataset.Column, opts Options) Result {
	if opts.CollectRemovals {
		return v.optimalSorted(ctx, a, b, false, opts)
	}
	n := ctx.N
	ra, rb := a.Ranks(), b.Ranks()
	limit := math.MaxInt
	if !opts.ComputeFullError {
		limit = removalBudget(opts.Threshold, n)
		if bound := swapMatching(ctx, ra, rb, limit); bound > limit {
			return finish(bound, n, opts, true, nil)
		}
	}
	removals := 0
	for ci, nc := 0, ctx.NumClasses(); ci < nc; ci++ {
		removals += v.countRemovals(ctx.Class(ci), ra, rb, limit-removals)
		if removals > limit {
			return finish(removals, n, opts, true, nil)
		}
	}
	return finish(removals, n, opts, false, nil)
}

// OptimalAOD validates the approximate canonical OD X: A ↦ B (Section 3.3
// extension): tuples are ordered by A ascending with ties broken by B
// *descending*, which forces the LNDS solution to remove all splits as well
// as all swaps. The removal set remains minimal.
func (v *Validator) OptimalAOD(ctx *partition.Stripped, a, b *dataset.Column, opts Options) Result {
	return v.optimalSorted(ctx, a, b, true, opts)
}

// optimalSorted is the removal-collecting form of Algorithm 2: each class is
// sorted into v.a / v.b / v.rows (B descending within A-ties when bDesc) and
// one LNDS is reconstructed, so the removal set names the same rows on every
// run.
func (v *Validator) optimalSorted(ctx *partition.Stripped, a, b *dataset.Column, bDesc bool, opts Options) Result {
	n := ctx.N
	budget := removalBudget(opts.Threshold, n)
	ra, rb := a.Ranks(), b.Ranks()
	flip := int32(b.NumDistinct() - 1)
	removals := 0
	var removed []int32
	for ci, nc := 0, ctx.NumClasses(); ci < nc; ci++ {
		cls := ctx.Class(ci)
		v.sortClass(cls, ra, rb, bDesc, flip)
		keep := v.lnds.LNDS(v.b)
		removals += len(cls) - len(keep)
		if opts.CollectRemovals {
			removed = v.collectRemoved(len(cls), keep, removed)
		}
		if !opts.ComputeFullError && !opts.CollectRemovals && removals > budget {
			return finish(removals, n, opts, true, nil)
		}
	}
	return finish(removals, n, opts, false, removed)
}

// ExactOFD verifies the exact OFD X: [] ↦ A (Def. 2.11): A must be constant
// within every class of the context partition. Runtime O(‖ctx‖).
func ExactOFD(ctx *partition.Stripped, a *dataset.Column) bool {
	ra := a.Ranks()
	for ci, nc := 0, ctx.NumClasses(); ci < nc; ci++ {
		cls := ctx.Class(ci)
		first := ra[cls[0]]
		for _, row := range cls[1:] {
			if ra[row] != first {
				return false
			}
		}
	}
	return true
}

// ApproxOFD validates the approximate OFD X: [] ↦ A using the linear-time g3
// measure of [Huhtala et al. 1999] (reference [3] of the paper): within each
// context class keep the most frequent A-value and remove the rest; the total
// removed over all classes is the (minimal) removal-set size.
func ApproxOFD(ctx *partition.Stripped, a *dataset.Column, opts Options) Result {
	return New().ApproxOFD(ctx, a, opts)
}

// ApproxOFD is the scratch-reusing form of the package-level ApproxOFD: the
// per-value frequency array is kept across calls so discovery loops do not
// allocate per candidate. Without opts.CollectRemovals a two-row class costs
// one comparison, and unless opts.ComputeFullError is set too the count
// stops at the first class that takes it past the budget.
func (v *Validator) ApproxOFD(ctx *partition.Stripped, a *dataset.Column, opts Options) Result {
	n := ctx.N
	ra := a.Ranks()
	stopAt := math.MaxInt
	if !opts.CollectRemovals && !opts.ComputeFullError {
		stopAt = removalBudget(opts.Threshold, n)
	}
	removals := 0
	var removed []int32
	if cap(v.freq) < a.NumDistinct() {
		v.freq = make([]int32, a.NumDistinct())
	}
	freq := v.freq[:a.NumDistinct()]
	for ci, nc := 0, ctx.NumClasses(); ci < nc; ci++ {
		cls := ctx.Class(ci)
		if len(cls) == 2 && !opts.CollectRemovals {
			if ra[cls[0]] != ra[cls[1]] {
				removals++
			}
		} else {
			var best int32
			var bestRank int32 = -1
			for _, row := range cls {
				r := ra[row]
				freq[r]++
				if freq[r] > best {
					best, bestRank = freq[r], r
				}
			}
			removals += len(cls) - int(best)
			if opts.CollectRemovals {
				for _, row := range cls {
					if ra[row] != bestRank {
						removed = append(removed, row)
					}
				}
			}
			// Reset only the touched counters.
			for _, row := range cls {
				freq[ra[row]] = 0
			}
		}
		if removals > stopAt {
			return finish(removals, n, opts, true, nil)
		}
	}
	return finish(removals, n, opts, false, removed)
}

// deadPool recycles the removed-row markers of the Verify helpers, so the
// quadratic diagnostics mark removals in a flat []bool instead of allocating
// a map per call.
var deadPool = sync.Pool{New: func() any { return new([]bool) }}

// acquireDead returns a length-n marker with removed rows set. Row ids
// outside [0, n) are ignored, matching the old map probe's tolerance of
// foreign ids. Release with releaseDead so the cleared buffer can be reused.
func acquireDead(n int, removed []int32) *[]bool {
	dp := deadPool.Get().(*[]bool)
	if cap(*dp) < n {
		*dp = make([]bool, n)
	}
	*dp = (*dp)[:n]
	for _, r := range removed {
		if r >= 0 && int(r) < n {
			(*dp)[r] = true
		}
	}
	return dp
}

func releaseDead(dp *[]bool, removed []int32) {
	for _, r := range removed {
		if r >= 0 && int(r) < len(*dp) {
			(*dp)[r] = false
		}
	}
	deadPool.Put(dp)
}

// VerifyNoSwaps is a test/diagnostic helper: it re-checks from first
// principles that, after deleting the rows in removed, no swap with respect
// to X: A ∼ B remains. It is quadratic and intended for small inputs.
func VerifyNoSwaps(ctx *partition.Stripped, a, b *dataset.Column, removed []int32) error {
	dp := acquireDead(ctx.N, removed)
	defer releaseDead(dp, removed)
	dead := *dp
	ra, rb := a.Ranks(), b.Ranks()
	for ci, nc := 0, ctx.NumClasses(); ci < nc; ci++ {
		cls := ctx.Class(ci)
		for i := 0; i < len(cls); i++ {
			if dead[cls[i]] {
				continue
			}
			for j := i + 1; j < len(cls); j++ {
				if dead[cls[j]] {
					continue
				}
				s, t := cls[i], cls[j]
				if (ra[s] < ra[t] && rb[t] < rb[s]) || (ra[t] < ra[s] && rb[s] < rb[t]) {
					return fmt.Errorf("swap remains between rows %d and %d", s, t)
				}
			}
		}
	}
	return nil
}

// VerifyNoSwapsOrSplits re-checks that after deleting the rows in removed,
// the canonical OD X: A ↦ B holds (no swaps and no splits). Quadratic;
// diagnostics only.
func VerifyNoSwapsOrSplits(ctx *partition.Stripped, a, b *dataset.Column, removed []int32) error {
	if err := VerifyNoSwaps(ctx, a, b, removed); err != nil {
		return err
	}
	dp := acquireDead(ctx.N, removed)
	defer releaseDead(dp, removed)
	dead := *dp
	ra, rb := a.Ranks(), b.Ranks()
	for ci, nc := 0, ctx.NumClasses(); ci < nc; ci++ {
		cls := ctx.Class(ci)
		for i := 0; i < len(cls); i++ {
			if dead[cls[i]] {
				continue
			}
			for j := i + 1; j < len(cls); j++ {
				if dead[cls[j]] {
					continue
				}
				s, t := cls[i], cls[j]
				if ra[s] == ra[t] && rb[s] != rb[t] {
					return fmt.Errorf("split remains between rows %d and %d", s, t)
				}
			}
		}
	}
	return nil
}
