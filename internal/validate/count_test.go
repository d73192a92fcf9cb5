package validate

import (
	"cmp"
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

// randomCountCase builds a context of classes sized 2–70 plus singleton
// rows, over A and B columns with heavy ties; wide domains push ranks past
// one byte so the radix sort's A and B digits both come into play.
func randomCountCase(rng *rand.Rand) (*partition.Stripped, *dataset.Column, *dataset.Column) {
	var sizes []int
	rows := 0
	for k := 1 + rng.Intn(12); k > 0; k-- {
		m := 2 + rng.Intn(69)
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
	domain := func() int {
		if rng.Intn(3) == 0 {
			return 257 + rng.Intn(400)
		}
		return 1 + rng.Intn(6)
	}
	bld := dataset.NewBuilder()
	for _, name := range []string{"a", "b"} {
		dom := domain()
		vals := make([]int64, rows)
		for i := range vals {
			vals[i] = int64(rng.Intn(dom))
		}
		bld.AddInts(name, vals)
	}
	tbl, err := bld.Build()
	if err != nil {
		panic(err)
	}
	return partition.FromClasses(rows, classes), tbl.Column(0), tbl.Column(1)
}

// TestCountPathMatchesCollectingPath runs the count-only kernels against
// the removal-collecting path on random contexts and thresholds.
func TestCountPathMatchesCollectingPath(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	v := New()
	for iter := 0; iter < 400; iter++ {
		ctx, a, b := randomCountCase(rng)
		checkCountPath(t, v, ctx, a, b, rng.Float64()*0.5)
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
