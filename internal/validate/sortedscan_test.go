package validate

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"aod/internal/dataset"
	"aod/internal/partition"
)

func TestTableOrdersSortedAndCached(t *testing.T) {
	tbl, err := dataset.NewBuilder().
		AddInts("a", []int64{30, 10, 20, 10}).
		AddInts("b", []int64{1, 2, 3, 4}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	to := NewTableOrders(tbl)
	order := to.Order(0)
	ranks := tbl.Column(0).Ranks()
	for i := 1; i < len(order); i++ {
		if ranks[order[i-1]] > ranks[order[i]] {
			t.Fatalf("order not sorted: %v", order)
		}
		if ranks[order[i-1]] == ranks[order[i]] && order[i-1] > order[i] {
			t.Fatalf("ties not by row id: %v", order)
		}
	}
	if &to.Order(0)[0] != &order[0] {
		t.Error("order not cached")
	}
}

// TestTableOrdersRadixEquivalence pins the radix-built global orders (the
// cold-start path above the cutoff) against the comparison sort they
// replaced, including heavy-tie rank distributions.
func TestTableOrdersRadixEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, rows := range []int{radixCutoff, 100, 1000, 5000} {
		b := dataset.NewBuilder()
		for c := 0; c < 4; c++ {
			vals := make([]int64, rows)
			domain := []int{2, 10, 1000, 1 << 30}[c]
			for i := range vals {
				vals[i] = int64(rng.Intn(domain))
			}
			b.AddInts(string(rune('a'+c)), vals)
		}
		tbl, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		to := NewTableOrders(tbl)
		for c := 0; c < 4; c++ {
			got := to.Order(c)
			ranks := tbl.Column(c).Ranks()
			want := make([]int32, rows)
			for i := range want {
				want[i] = int32(i)
			}
			sort.SliceStable(want, func(i, j int) bool { return ranks[want[i]] < ranks[want[j]] })
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("rows=%d col=%d: radix order diverges at %d: %d vs %d",
						rows, c, i, got[i], want[i])
				}
			}
		}
	}
}

// BenchmarkTableOrdersWide measures sorted-scan cold start on a wide table:
// one global order per attribute, built with the LSD radix pass.
func BenchmarkTableOrdersWide(b *testing.B) {
	rng := rand.New(rand.NewSource(91))
	const rows, cols = 20_000, 16
	db := dataset.NewBuilder()
	for c := 0; c < cols; c++ {
		vals := make([]int64, rows)
		for i := range vals {
			vals[i] = int64(rng.Intn(1 << 20))
		}
		db.AddInts(string(rune('a'+c)), vals)
	}
	tbl, err := db.Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		to := NewTableOrders(tbl)
		for c := 0; c < cols; c++ {
			to.Order(c)
		}
	}
}

// ExactOCScan must agree with the sort-based ExactOC on random instances.
func TestExactOCScanEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	v := New()
	for iter := 0; iter < 500; iter++ {
		rows := 2 + rng.Intn(40)
		b := dataset.NewBuilder()
		for c := 0; c < 3; c++ {
			vals := make([]int64, rows)
			for i := range vals {
				vals[i] = int64(rng.Intn(2 + rng.Intn(6)))
			}
			b.AddInts(string(rune('a'+c)), vals)
		}
		tbl, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		to := NewTableOrders(tbl)
		var ctx *partition.Stripped
		if rng.Intn(2) == 0 {
			ctx = partition.Universe(rows)
		} else {
			ctx = partition.Single(tbl.Column(0))
		}
		a, bb := tbl.Column(1), tbl.Column(2)
		want, _ := v.ExactOC(ctx, a, bb)
		got, w := v.ExactOCScan(ctx.ClassIDs(), ctx.NumClasses(), to.Order(1), a, bb)
		if got != want {
			t.Fatalf("iter %d: scan=%v sort=%v", iter, got, want)
		}
		if !got {
			// The witness must be a genuine swap within one class.
			ra, rb := a.Ranks(), bb.Ranks()
			s, u := w[0], w[1]
			if !(ra[s] < ra[u] && rb[u] < rb[s]) && !(ra[u] < ra[s] && rb[s] < rb[u]) {
				t.Fatalf("iter %d: witness %v not a swap", iter, w)
			}
			ids := ctx.ClassIDs()
			if ids[s] != ids[u] || ids[s] < 0 {
				t.Fatalf("iter %d: witness %v spans classes", iter, w)
			}
		}
	}
}

// Repeated calls on one Validator must not leak state across candidates.
func TestExactOCScanScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	v := New()
	tblA, _ := dataset.NewBuilder().
		AddInts("a", []int64{1, 2, 3, 4}).
		AddInts("b", []int64{1, 2, 3, 4}).
		Build()
	to := NewTableOrders(tblA)
	u := partition.Universe(4)
	for i := 0; i < 50; i++ {
		ok, _ := v.ExactOCScan(u.ClassIDs(), u.NumClasses(), to.Order(0), tblA.Column(0), tblA.Column(1))
		if !ok {
			t.Fatal("monotone pair must hold on every call")
		}
		_ = rng
	}
}

// TestExactOCScanEpochWrap pins the hard reset on a stamp-counter wrap: it
// must clear the stamps of every class the scratch holds, not only those of
// the wrapping call's classes, or a later call over more classes reads
// pre-wrap stamps as current and reports a swap that does not exist.
func TestExactOCScanEpochWrap(t *testing.T) {
	// Ten classes of three rows, A == B taking three values in each class.
	ctxVals, vals := make([]int64, 30), make([]int64, 30)
	for i := range ctxVals {
		ctxVals[i], vals[i] = int64(i%10), int64(i/10)
	}
	wide, err := dataset.NewBuilder().AddInts("c", ctxVals).AddInts("a", vals).AddInts("b", vals).Build()
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := dataset.NewBuilder().
		AddInts("c", []int64{0, 0, 1, 1}).
		AddInts("a", []int64{0, 1, 0, 1}).
		AddInts("b", []int64{0, 1, 0, 1}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	scan := func(v *Validator, tbl *dataset.Table) bool {
		ctx := partition.Single(tbl.Column(0))
		ok, _ := v.ExactOCScan(ctx.ClassIDs(), ctx.NumClasses(), NewTableOrders(tbl).Order(1), tbl.Column(1), tbl.Column(2))
		return ok
	}
	v := New()
	// Two calls leave all ten classes stamped with epoch 2, the value the
	// epoch takes again on the second call after the wrap.
	for i := 0; i < 2; i++ {
		if !scan(v, wide) {
			t.Fatal("A == B must hold before the wrap")
		}
	}
	v.scan.epoch = math.MaxInt32
	if !scan(v, narrow) {
		t.Fatal("A == B must hold on the wrapping call")
	}
	if !scan(v, wide) {
		t.Fatal("A == B reported a swap after the epoch wrapped: stale stamps survived the reset")
	}
}

func TestExactOCScanPaperExample(t *testing.T) {
	tbl, err := dataset.NewBuilder().
		AddInts("sal", []int64{20, 25, 30, 40, 50, 55, 60, 90, 200}).
		AddInts("tax", []int64{20, 25, 3, 120, 15, 165, 18, 72, 160}).
		AddStrings("taxGrp", []string{"A", "A", "A", "B", "B", "B", "B", "C", "C"}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	to := NewTableOrders(tbl)
	v := New()
	u := partition.Universe(9)
	if ok, _ := v.ExactOCScan(u.ClassIDs(), u.NumClasses(), to.Order(0), tbl.Column(0), tbl.Column(2)); !ok {
		t.Error("sal ∼ taxGrp should hold via scan")
	}
	if ok, _ := v.ExactOCScan(u.ClassIDs(), u.NumClasses(), to.Order(0), tbl.Column(0), tbl.Column(1)); ok {
		t.Error("sal ∼ tax should NOT hold via scan")
	}
}

func BenchmarkExactOCScanVsSort(b *testing.B) {
	rng := rand.New(rand.NewSource(90))
	const rows = 100_000
	db := dataset.NewBuilder()
	for c := 0; c < 3; c++ {
		vals := make([]int64, rows)
		for i := range vals {
			vals[i] = int64(rng.Intn(1000))
		}
		db.AddInts(string(rune('a'+c)), vals)
	}
	tbl, err := db.Build()
	if err != nil {
		b.Fatal(err)
	}
	ctx := partition.Single(tbl.Column(0))
	ids := ctx.ClassIDs()
	to := NewTableOrders(tbl)
	order := to.Order(1)
	v := New()
	b.Run("sort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v.ExactOC(ctx, tbl.Column(1), tbl.Column(2))
		}
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v.ExactOCScan(ids, ctx.NumClasses(), order, tbl.Column(1), tbl.Column(2))
		}
	})
}
