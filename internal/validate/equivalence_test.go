package validate

import (
	"math/rand"
	"sort"
	"testing"

	"aod/internal/dataset"
	"aod/internal/gen"
	"aod/internal/lis"
	"aod/internal/partition"
)

// legacySortClass orders a class by [A asc, B asc/desc] with the stable
// legacy comparison sort (stable so that tie order matches the radix sort's
// row-ascending tie order — the unstable sort.Sort the old validators used
// left equal (A,B) pairs in an arbitrary permutation, which only ever
// affected which of two interchangeable rows a removal set named).
func legacySortClass(cls []int32, ra, rb []int32, bDesc bool) (a, b, rows []int32) {
	m := len(cls)
	a, b, rows = make([]int32, m), make([]int32, m), make([]int32, m)
	for i, row := range cls {
		a[i], b[i], rows[i] = ra[row], rb[row], row
	}
	idx := make([]int, m)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool {
		i, j := idx[x], idx[y]
		if a[i] != a[j] {
			return a[i] < a[j]
		}
		if bDesc {
			return b[i] > b[j]
		}
		return b[i] < b[j]
	})
	sa, sb, sr := make([]int32, m), make([]int32, m), make([]int32, m)
	for k, i := range idx {
		sa[k], sb[k], sr[k] = a[i], b[i], rows[i]
	}
	return sa, sb, sr
}

// legacyOptimalAOC is the pre-radix Algorithm 2 loop (sort + package LNDS),
// used to pin the rewritten hot path result-for-result.
func legacyOptimalAOC(ctx *partition.Stripped, a, b *dataset.Column, opts Options) Result {
	n := ctx.N
	ra, rb := a.Ranks(), b.Ranks()
	removals := 0
	var removed []int32
	for ci := 0; ci < ctx.NumClasses(); ci++ {
		cls := ctx.Class(ci)
		_, sb, sr := legacySortClass(cls, ra, rb, false)
		keep := lis.LNDS(sb)
		removals += len(cls) - len(keep)
		if opts.CollectRemovals {
			k := 0
			for i := range sr {
				if k < len(keep) && keep[k] == i {
					k++
					continue
				}
				removed = append(removed, sr[i])
			}
		}
	}
	return finish(removals, n, opts, false, removed)
}

func legacyOptimalAOD(ctx *partition.Stripped, a, b *dataset.Column, opts Options) Result {
	n := ctx.N
	ra, rb := a.Ranks(), b.Ranks()
	removals := 0
	var removed []int32
	for ci := 0; ci < ctx.NumClasses(); ci++ {
		cls := ctx.Class(ci)
		_, sb, sr := legacySortClass(cls, ra, rb, true)
		keep := lis.LNDS(sb)
		removals += len(cls) - len(keep)
		if opts.CollectRemovals {
			k := 0
			for i := range sr {
				if k < len(keep) && keep[k] == i {
					k++
					continue
				}
				removed = append(removed, sr[i])
			}
		}
	}
	return finish(removals, n, opts, false, removed)
}

func randomCtxCols(rng *rand.Rand, rows int) (*partition.Stripped, *dataset.Column, *dataset.Column) {
	b := dataset.NewBuilder()
	for c := 0; c < 3; c++ {
		vals := make([]int64, rows)
		dom := 1 + rng.Intn(8)
		for i := range vals {
			vals[i] = int64(rng.Intn(dom))
		}
		b.AddInts(string(rune('a'+c)), vals)
	}
	tbl, err := b.Build()
	if err != nil {
		panic(err)
	}
	return partition.Single(tbl.Column(0)), tbl.Column(1), tbl.Column(2)
}

// TestOptimalAOCEquivalentToLegacy pins the radix-sort validators to the
// legacy comparison-sort loop: identical removal counts, errors, and removal
// sets on random workloads, across both tie directions.
func TestOptimalAOCEquivalentToLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	v := New()
	opts := Options{Threshold: 1, CollectRemovals: true, ComputeFullError: true}
	for iter := 0; iter < 200; iter++ {
		rows := 2 + rng.Intn(200)
		ctx, ca, cb := randomCtxCols(rng, rows)
		got := v.OptimalAOC(ctx, ca, cb, opts)
		want := legacyOptimalAOC(ctx, ca, cb, opts)
		if got.Removals != want.Removals || got.Error != want.Error {
			t.Fatalf("iter %d: OptimalAOC = %d removals, legacy %d", iter, got.Removals, want.Removals)
		}
		if len(got.RemovalRows) != len(want.RemovalRows) {
			t.Fatalf("iter %d: removal set sizes differ: %v vs %v", iter, got.RemovalRows, want.RemovalRows)
		}
		for i := range got.RemovalRows {
			if got.RemovalRows[i] != want.RemovalRows[i] {
				t.Fatalf("iter %d: removal sets differ: %v vs %v", iter, got.RemovalRows, want.RemovalRows)
			}
		}
		if err := VerifyNoSwaps(ctx, ca, cb, got.RemovalRows); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}

		gotD := v.OptimalAOD(ctx, ca, cb, opts)
		wantD := legacyOptimalAOD(ctx, ca, cb, opts)
		if gotD.Removals != wantD.Removals {
			t.Fatalf("iter %d: OptimalAOD = %d removals, legacy %d", iter, gotD.Removals, wantD.Removals)
		}
		for i := range gotD.RemovalRows {
			if gotD.RemovalRows[i] != wantD.RemovalRows[i] {
				t.Fatalf("iter %d: AOD removal sets differ: %v vs %v", iter, gotD.RemovalRows, wantD.RemovalRows)
			}
		}
		if err := VerifyNoSwapsOrSplits(ctx, ca, cb, gotD.RemovalRows); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
	}
}

// TestRadixSortCrossesCutoff exercises every sort branch on the same data:
// the sorting path's comparison and radix sorts (either side of radixCutoff)
// and the count path's insertion sort and digit-skipping radix sort (either
// side of insertionCutoff) must all produce the stable legacy order — the
// count path as keys, the sorting path down to the row ids. Keys that
// differ only in their A bytes (ranks ≥ 256, one B value) leave the radix
// nothing to do on the B digits.
func TestRadixSortCrossesCutoff(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	v := New()
	sizes := []int{2, insertionCutoff, insertionCutoff + 1, radixCutoff - 1, radixCutoff, radixCutoff + 1, 4 * radixCutoff}
	for _, aOnly := range []bool{false, true} {
		for _, m := range sizes {
			cls := make([]int32, m)
			ra := make([]int32, m)
			rb := make([]int32, m)
			for i := range cls {
				cls[i] = int32(i)
				if aOnly {
					ra[i] = int32(256*(1+rng.Intn(5)) + rng.Intn(3))
					rb[i] = 7
				} else {
					ra[i] = int32(rng.Intn(5))
					rb[i] = int32(rng.Intn(5))
				}
			}
			// Must match the stable legacy order exactly (ties row-ascending).
			sa, sb, sr := legacySortClass(cls, ra, rb, false)
			v.sortClass(cls, ra, rb, false, 0)
			for i := 0; i < m; i++ {
				if v.a[i] != sa[i] || v.b[i] != sb[i] || v.rows[i] != sr[i] {
					t.Fatalf("aOnly=%v m=%d: position %d = (%d,%d,row %d), legacy (%d,%d,row %d)",
						aOnly, m, i, v.a[i], v.b[i], v.rows[i], sa[i], sb[i], sr[i])
				}
			}
			for i, k := range v.sortKeys(v.loadKeys(cls, ra, rb)) {
				if int32(k>>32) != sa[i] || int32(uint32(k)) != sb[i] {
					t.Fatalf("aOnly=%v m=%d: count-path key %d = (%d,%d), legacy (%d,%d)",
						aOnly, m, i, int32(k>>32), int32(uint32(k)), sa[i], sb[i])
				}
			}
		}
	}
}

// --- Allocation regression --------------------------------------------------

// TestValidatorAllocFree pins the steady-state allocation counts of the
// validation hot path: with warm scratch, OptimalAOC / ExactOC / ApproxOFD
// must not allocate at all — on the one-big-class universe, on the
// many-small-classes partition discovery mostly feeds them, and on classes
// of a few dozen rows that take both count-path sorts.
func TestValidatorAllocFree(t *testing.T) {
	tbl := gen.CorrelatedPair(20_000, 0.10, 42)
	ca, cb := tbl.Column(0), tbl.Column(1)
	buckets := make([]int64, 20_000)
	for i, r := range ca.Ranks() {
		buckets[i] = int64(r % 1500)
	}
	bucketed, err := dataset.NewBuilder().AddInts("bucket", buckets).Build()
	if err != nil {
		t.Fatal(err)
	}
	for name, ctx := range map[string]*partition.Stripped{
		"universe": partition.Universe(20_000),
		"classes":  partition.Single(ca),
		"buckets":  partition.Single(bucketed.Column(0)),
	} {
		v := New()
		v.OptimalAOC(ctx, ca, cb, Options{Threshold: 0.5}) // warm
		if n := testing.AllocsPerRun(10, func() {
			v.OptimalAOC(ctx, ca, cb, Options{Threshold: 0.5})
		}); n != 0 {
			t.Errorf("OptimalAOC/%s allocates %.1f times per call in steady state, want 0", name, n)
		}
		v.ExactOC(ctx, ca, cb)
		if n := testing.AllocsPerRun(10, func() {
			v.ExactOC(ctx, ca, cb)
		}); n != 0 {
			t.Errorf("ExactOC/%s allocates %.1f times per call in steady state, want 0", name, n)
		}
	}
	v := New()
	single := partition.Single(ca)
	v.ApproxOFD(single, cb, Options{Threshold: 0.5})
	if n := testing.AllocsPerRun(10, func() {
		v.ApproxOFD(single, cb, Options{Threshold: 0.5})
	}); n != 0 {
		t.Errorf("ApproxOFD allocates %.1f times per call in steady state, want 0", n)
	}
}

// TestIterativeValidatorAllocFree pins the iterative (paper-baseline)
// validator's steady state: the per-class swap-count buffers, Fenwick tree,
// and liveness markers all live in Validator scratch now, so a warm
// validator must not allocate — on the one-big-class shape and on a
// many-classes partition (the shape discovery actually feeds it).
func TestIterativeValidatorAllocFree(t *testing.T) {
	tbl := gen.CorrelatedPair(20_000, 0.10, 42)
	ca, cb := tbl.Column(0), tbl.Column(1)
	for name, ctx := range map[string]*partition.Stripped{
		"universe": partition.Universe(20_000),
		"classes":  partition.Single(ca),
	} {
		v := New()
		v.IterativeAOC(ctx, ca, cb, Options{Threshold: 0.10}) // warm
		if n := testing.AllocsPerRun(10, func() {
			v.IterativeAOC(ctx, ca, cb, Options{Threshold: 0.10})
		}); n != 0 {
			t.Errorf("IterativeAOC/%s allocates %.1f times per call in steady state, want 0", name, n)
		}
	}
}
