package validate

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"aod/internal/dataset"
	"aod/internal/partition"
)

// checkCountPath compares the count-only kernels with the removal-collecting
// path on one candidate: OptimalAOC and ApproxOFD must agree with it on
// Valid, and on Removals and Error unless the count stopped at the budget,
// in which case its lower bound lies above the budget and not above the
// full count; an ExactOC witness must be a real swap within one class.
func checkCountPath(t testing.TB, v *Validator, ctx *partition.Stripped, a, b *dataset.Column, eps float64) {
	t.Helper()
	budget := removalBudget(eps, ctx.N)
	full := Options{Threshold: eps, ComputeFullError: true, CollectRemovals: true}
	compare := func(name string, count, exact, want Result) {
		t.Helper()
		if exact.Aborted || exact.Removals != want.Removals || exact.Error != want.Error || exact.Valid != want.Valid {
			t.Fatalf("%s with ComputeFullError = %+v, collecting path %+v", name, exact, want)
		}
		if count.Valid != want.Valid {
			t.Fatalf("%s: count Valid = %v, collecting path %v (ε = %v, removals %d)",
				name, count.Valid, want.Valid, eps, want.Removals)
		}
		if !count.Aborted {
			if count.Removals != want.Removals || count.Error != want.Error {
				t.Fatalf("%s: count = %d (%v), collecting path %d (%v)",
					name, count.Removals, count.Error, want.Removals, want.Error)
			}
			return
		}
		if count.Removals <= budget || count.Removals > want.Removals {
			t.Fatalf("%s: aborted count %d outside (budget %d, full %d]",
				name, count.Removals, budget, want.Removals)
		}
	}

	fullOC := v.OptimalAOC(ctx, a, b, full)
	if m := swapMatching(ctx, a.Ranks(), b.Ranks(), math.MaxInt); m > fullOC.Removals {
		t.Fatalf("swap matching %d exceeds the minimal removal count %d", m, fullOC.Removals)
	}
	compare("OptimalAOC",
		v.OptimalAOC(ctx, a, b, Options{Threshold: eps}),
		v.OptimalAOC(ctx, a, b, Options{Threshold: eps, ComputeFullError: true}),
		fullOC)
	compare("ApproxOFD",
		v.ApproxOFD(ctx, b, Options{Threshold: eps}),
		v.ApproxOFD(ctx, b, Options{Threshold: eps, ComputeFullError: true}),
		v.ApproxOFD(ctx, b, full))

	holds, w := v.ExactOC(ctx, a, b)
	if want := fullOC.Removals == 0; holds != want {
		t.Fatalf("ExactOC = %v, collecting path says %v", holds, want)
	}
	if !holds {
		ra, rb := a.Ranks(), b.Ranks()
		s, u := w[0], w[1]
		if s < 0 || u < 0 || !(ra[s] < ra[u] && rb[u] < rb[s]) && !(ra[u] < ra[s] && rb[s] < rb[u]) {
			t.Fatalf("ExactOC witness %v is not a swap", w)
		}
		if ids := ctx.ClassIDs(); ids[s] < 0 || ids[s] != ids[u] {
			t.Fatalf("ExactOC witness %v spans classes", w)
		}
	}
}

// randomCountCase builds a context of classes sized 2–70, now and then one
// longer than matchCheckRows, plus singleton rows. A and B either take heavy
// ties, where wide domains push ranks past one byte so the radix sort's A and
// B digits both come into play, or are near-monotone (nearMonotone), where
// the swap matching equals the minimal count.
func randomCountCase(rng *rand.Rand) (*partition.Stripped, *dataset.Column, *dataset.Column) {
	var sizes []int
	rows := 0
	for k := 1 + rng.Intn(12); k > 0; k-- {
		m := 2 + rng.Intn(69)
		if rng.Intn(8) == 0 {
			m = matchCheckRows + 1 + rng.Intn(2*matchCheckRows)
		}
		sizes = append(sizes, m)
		rows += m
	}
	rows += rng.Intn(10) // singletons, stripped from the context
	perm := rng.Perm(rows)
	classes := make([][]int32, len(sizes))
	at := 0
	for i, m := range sizes {
		cls := make([]int32, m)
		for j := range cls {
			cls[j] = int32(perm[at+j])
		}
		at += m
		slices.Sort(cls)
		classes[i] = cls
	}
	// FromClasses wants classes ordered by first row.
	slices.SortFunc(classes, func(x, y []int32) int { return cmp.Compare(x[0], y[0]) })
	var av, bv []int64
	if rng.Intn(3) == 0 {
		av, bv = nearMonotone(rng, rows)
	} else {
		av, bv = tiedColumn(rng, rows), tiedColumn(rng, rows)
	}
	tbl, err := dataset.NewBuilder().AddInts("a", av).AddInts("b", bv).Build()
	if err != nil {
		panic(err)
	}
	return partition.FromClasses(rows, classes), tbl.Column(0), tbl.Column(1)
}

// tiedColumn draws rows values from a small domain, or now and then from one
// wider than a byte.
func tiedColumn(rng *rand.Rand, rows int) []int64 {
	dom := 1 + rng.Intn(6)
	if rng.Intn(3) == 0 {
		dom = 257 + rng.Intn(400)
	}
	vals := make([]int64, rows)
	for i := range vals {
		vals[i] = int64(rng.Intn(dom))
	}
	return vals
}

// nearMonotone returns A and B near the row id: a random share of the row
// pairs (2i+1, 2i+2) have their A values transposed, and of the pairs
// (2i, 2i+1) their B values. Only adjacent rows can then swap, a class's
// swaps form paths along its rows, and the swap matching, a maximum
// matching on each path, equals the minimal removal count.
func nearMonotone(rng *rand.Rand, rows int) (a, b []int64) {
	a, b = make([]int64, rows), make([]int64, rows)
	for i := range a {
		a[i], b[i] = int64(i), int64(i)
	}
	share := rng.Float64()
	for i := 0; i+1 < rows; i++ {
		if rng.Float64() < share {
			col := b
			if i%2 == 1 {
				col = a
			}
			col[i], col[i+1] = col[i+1], col[i]
		}
	}
	return a, b
}

// TestCountPathMatchesCollectingPath runs the count-only kernels against
// the removal-collecting path on random contexts and thresholds. A third of
// the thresholds put the budget exactly on the swap matching: a bound equal
// to the budget must not reject, and on near-monotone columns such a
// candidate holds.
func TestCountPathMatchesCollectingPath(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	v := New()
	for iter := 0; iter < 400; iter++ {
		ctx, a, b := randomCountCase(rng)
		eps := rng.Float64() * 0.5
		if rng.Intn(3) == 0 {
			eps = float64(swapMatching(ctx, a.Ranks(), b.Ranks(), math.MaxInt)) / float64(ctx.N)
		}
		checkCountPath(t, v, ctx, a, b, eps)
	}
}

// TestOptimalAOCRejectsOnSwapMatching pins that OptimalAOC rejects through
// the swap-matching bound before the count kernel: on one 400-row class with
// B reversed, the bound crosses the ε = 0.2 budget (80) between two checks
// and is read inside the class (128 at the first check, below the class's
// full 200), while the sorted LNDS would stop at 81.
func TestOptimalAOCRejectsOnSwapMatching(t *testing.T) {
	const n = 400
	av, bv := make([]int64, n), make([]int64, n)
	for i := range av {
		av[i], bv[i] = int64(i), int64(n-i)
	}
	tbl, err := dataset.NewBuilder().AddInts("a", av).AddInts("b", bv).Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx, a, b := partition.Universe(n), tbl.Column(0), tbl.Column(1)
	const eps = 0.2
	limit := removalBudget(eps, n)
	v := New()
	bound := swapMatching(ctx, a.Ranks(), b.Ranks(), limit)
	keys, _ := v.classKeys(ctx.Class(0), a.Ranks(), b.Ranks())
	lnds := v.lndsRemovals(keys, limit)
	if bound <= limit || bound >= n/2 || bound == lnds {
		t.Fatalf("bound %d, LNDS stop %d, budget %d: want a bound above the budget, read inside the class, that differs from the LNDS stop", bound, lnds, limit)
	}
	got := v.OptimalAOC(ctx, a, b, Options{Threshold: eps})
	if got.Valid || !got.Aborted || got.Removals != bound {
		t.Fatalf("OptimalAOC = %+v, want an aborted rejection with the swap matching's %d removals", got, bound)
	}
}

// decodeCountCase reads a fuzz input: the first byte is ε in 1/255 steps,
// then five bytes per row give its context value and 16-bit A and B values.
func decodeCountCase(data []byte) (*partition.Stripped, *dataset.Column, *dataset.Column, float64, bool) {
	if len(data) < 1+2*5 {
		return nil, nil, nil, 0, false
	}
	eps := float64(data[0]) / 255
	data = data[1:]
	rows := min(len(data)/5, 400)
	c, a, b := make([]int64, rows), make([]int64, rows), make([]int64, rows)
	for i := range c {
		r := data[5*i : 5*i+5]
		c[i] = int64(r[0])
		a[i] = int64(r[1])<<8 | int64(r[2])
		b[i] = int64(r[3])<<8 | int64(r[4])
	}
	tbl, err := dataset.NewBuilder().AddInts("c", c).AddInts("a", a).AddInts("b", b).Build()
	if err != nil {
		return nil, nil, nil, 0, false
	}
	return partition.Single(tbl.Column(0)), tbl.Column(1), tbl.Column(2), eps, true
}

// FuzzOptimalAOCCount is TestCountPathMatchesCollectingPath under
// coverage-guided inputs (seed corpus in testdata/fuzz/FuzzOptimalAOCCount).
func FuzzOptimalAOCCount(f *testing.F) {
	f.Add([]byte{25, 0, 0, 1, 0, 2, 0, 0, 2, 0, 1, 0, 0, 3, 0, 0})
	v := New()
	f.Fuzz(func(t *testing.T, data []byte) {
		ctx, a, b, eps, ok := decodeCountCase(data)
		if !ok {
			return
		}
		checkCountPath(t, v, ctx, a, b, eps)
	})
}
