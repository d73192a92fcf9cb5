package partition

import (
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"aod/internal/dataset"
	"aod/internal/gen"
)

// sameLayout reports whether a and b are byte-identical partitions: same row
// count, same CSR rows and offsets (so the same classes in the same order).
// An empty offsets slice equals a nil one — both mean "no classes".
func sameLayout(a, b *Stripped) bool {
	if a.N != b.N || !slices.Equal(a.rows, b.rows) {
		return false
	}
	if a.NumClasses() == 0 || b.NumClasses() == 0 {
		return a.NumClasses() == b.NumClasses()
	}
	return slices.Equal(a.offsets, b.offsets)
}

// TestSplitMatchesTwoParentProduct walks every attribute set of full lattices
// level by level and builds Π_S both ways: the one-parent split
// Π_{S∖{c₁}}.SplitBy(c₁) and the classic two-parent product
// Π_{S∖{c₁}}·Π_{S∖{c₂}} (c₁ < c₂ the two smallest attributes of S). Each
// level's product runs over the previous level's split partitions, which the
// previous level proved equal to its products, so the check covers whole
// lattices byte for byte. One scratch serves every split, so it is reused
// across columns of very different distinct counts — the regNum key has as
// many distinct values as the table has rows, far more than the rows a deep
// partition covers.
func TestSplitMatchesTwoParentProduct(t *testing.T) {
	tables := map[string]*dataset.Table{
		"ncvoter-7000x14": gen.NCVoter(gen.NCVoterConfig{Rows: 7000, Attrs: 14, Seed: 42}),
		"flight-3000x9":   gen.Flight(gen.FlightConfig{Rows: 3000, Attrs: 9, Seed: 7}),
		"uniform-500x8":   gen.Uniform(500, 8, 3, 11),
	}
	if testing.Short() {
		tables["ncvoter-7000x14"] = gen.NCVoter(gen.NCVoterConfig{Rows: 1500, Attrs: 10, Seed: 42})
	}
	for name, tbl := range tables {
		checkLatticeSplits(t, name, tbl)
	}
}

func checkLatticeSplits(t *testing.T, name string, tbl *dataset.Table) {
	t.Helper()
	var a Arena
	var s ProductScratch
	cols := tbl.NumCols()
	prev := make(map[uint64]*Stripped, cols)
	for c := 0; c < cols; c++ {
		prev[1<<uint(c)] = Single(tbl.Column(c))
	}
	nodes := 0
	for level := 2; level <= cols; level++ {
		cur := make(map[uint64]*Stripped)
		for set := uint64(1); set < 1<<uint(cols); set++ {
			if bits.OnesCount64(set) != level {
				continue
			}
			c1 := bits.TrailingZeros64(set)
			rest := set &^ (1 << uint(c1))
			c2 := bits.TrailingZeros64(rest)
			base := prev[rest]
			got := base.SplitInto(tbl.Column(c1), &s, a.GetStripped())
			want := base.Product(prev[set&^(1<<uint(c2))])
			if !sameLayout(got, want) {
				t.Fatalf("%s: set %b: split %v differs from two-parent product %v", name, set, got, want)
			}
			cur[set] = got
			nodes++
		}
		for set, p := range prev {
			if bits.OnesCount64(set) > 1 {
				a.Recycle(p)
			}
		}
		prev = cur
	}
	if want := 1<<uint(cols) - 1 - cols; nodes != want {
		t.Fatalf("%s: checked %d nodes, want %d", name, nodes, want)
	}
}

// TestSplitByWideColumn splits small partitions by a key column whose
// distinct count far exceeds the rows they cover (and by a narrow column in
// between, so one scratch grows and shrinks its key range), against the
// product with the column's own partition.
func TestSplitByWideColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	const rows = 3000
	key := make([]int64, rows)
	narrow := make([]int64, rows)
	for i := range key {
		key[i] = int64(rng.Intn(rows * 4))
		narrow[i] = int64(rng.Intn(3))
	}
	tbl := mustTable(t, map[string][]int64{"key": key, "narrow": narrow}, []string{"key", "narrow"})
	if tbl.Column(0).NumDistinct() < rows/2 {
		t.Fatalf("key column has only %d distinct values", tbl.Column(0).NumDistinct())
	}
	var s ProductScratch
	out := &Stripped{}
	for iter := 0; iter < 50; iter++ {
		// A handful of disjoint classes over a few dozen rows.
		perm := rng.Perm(rows)
		var cls [][]int32
		for c := 0; c < 1+rng.Intn(6); c++ {
			k := 2 + rng.Intn(8)
			var members []int32
			for _, r := range perm[:k] {
				members = append(members, int32(r))
			}
			perm = perm[k:]
			slices.Sort(members)
			cls = append(cls, members)
		}
		p := FromClasses(rows, cls)
		for _, c := range []int{0, 1, 0} {
			p.SplitInto(tbl.Column(c), &s, out)
			if want := p.Product(Single(tbl.Column(c))); !sameLayout(out, want) {
				t.Fatalf("iter %d col %d: split %v, product %v", iter, c, classes(out), classes(want))
			}
		}
	}
}

// TestSplitAllocFree pins the steady-state allocation count of the split
// kernel: with warm scratch and a reused output, SplitInto must not allocate.
func TestSplitAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	tbl := randomTable(rng, 4096, 2, 40)
	pa := Single(tbl.Column(0))
	var s ProductScratch
	out := &Stripped{}
	pa.SplitInto(tbl.Column(1), &s, out) // warm the buffers
	if n := testing.AllocsPerRun(50, func() {
		pa.SplitInto(tbl.Column(1), &s, out)
	}); n != 0 {
		t.Errorf("SplitInto allocates %.1f times per call in steady state, want 0", n)
	}
}

// TestSplitPanicsOnMismatchedN pins the row-count guard.
func TestSplitPanicsOnMismatchedN(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	tbl := randomTable(rng, 10, 1, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("split of a partition by a column of another length must panic")
		}
	}()
	Universe(11).SplitBy(tbl.Column(0))
}

// TestSplitKeepsParentClassOrder pins the class order a split emits: each
// parent class's subgroups take its place, so the classes of a split are not
// ordered by first row id.
func TestSplitKeepsParentClassOrder(t *testing.T) {
	tbl := mustTable(t, map[string][]int64{"c": {0, 5, 5, 7, 7, 1, 0, 1}}, []string{"c"})
	p := FromClasses(8, [][]int32{{0, 5, 6, 7}, {1, 2}, {3, 4}})
	want := [][]int32{{0, 6}, {5, 7}, {1, 2}, {3, 4}}
	if got := classes(p.SplitBy(tbl.Column(0))); !reflect.DeepEqual(got, want) {
		t.Fatalf("split classes %v, want %v", got, want)
	}
}

// TestArenaSplitMatchesSplitInto checks Arena.Split against SplitInto
// over random bases and columns: the result is byte-identical to SplitInto's
// output and never the base itself, even when the column divides no class.
// The shapes cover a column constant on every class, a constant prefix of
// classes followed by one the column divides, bases of two-row classes only,
// empty bases, and unconstrained columns. Every output goes back to the
// arena, so later splits reuse buffers of other shapes.
func TestArenaSplitMatchesSplitInto(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	shapes := []string{"constant", "prefix", "two-row", "empty", "random"}
	var a Arena
	var s ProductScratch
	for iter := 0; iter < 5000; iter++ {
		shape := shapes[iter%len(shapes)]
		base, vals := splitCase(rng, shape)
		col := mustTable(t, map[string][]int64{"c": vals}, []string{"c"}).Column(0)
		want := base.SplitInto(col, &s, &Stripped{})
		got := a.Split(base, col)
		if got == base {
			t.Fatalf("iter %d (%s): base %v, column %v: Split returned its base", iter, shape, classes(base), vals)
		}
		if !sameLayout(got, want) {
			t.Fatalf("iter %d (%s): base %v, column %v: Split %v, SplitInto %v",
				iter, shape, classes(base), vals, classes(got), classes(want))
		}
		a.Recycle(got)
	}
}

// splitCase draws a base partition over 2–121 rows in the given shape and the
// column values to split it by (see TestArenaSplitMatchesSplitInto). Classes
// come in random order, as a split's classes may.
func splitCase(rng *rand.Rand, shape string) (*Stripped, []int64) {
	n := 2 + rng.Intn(120)
	minClasses := 1
	if shape == "prefix" {
		n, minClasses = max(n, 4), 2
	}
	const domain = 5
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(rng.Intn(domain))
	}
	if shape == "empty" {
		return FromClasses(n, nil), vals
	}
	var cls [][]int32
	perm := rng.Perm(n)
	for len(perm) >= 2 && (len(cls) < minClasses || rng.Intn(8) > 0) {
		k := 2
		if shape != "two-row" {
			k = min(2+rng.Intn(7), len(perm))
		}
		if len(cls) < minClasses-1 {
			k = min(k, len(perm)-2) // leave rows for the classes still due
		}
		members := make([]int32, k)
		for i, r := range perm[:k] {
			members[i] = int32(r)
		}
		perm = perm[k:]
		slices.Sort(members)
		cls = append(cls, members)
	}
	rng.Shuffle(len(cls), func(i, j int) { cls[i], cls[j] = cls[j], cls[i] })
	// constantUpTo is the number of leading classes set to one value each;
	// divide, when not negative, is a class given two values.
	constantUpTo, divide := 0, -1
	switch shape {
	case "constant":
		constantUpTo = len(cls)
	case "prefix":
		constantUpTo = 1 + rng.Intn(len(cls)-1)
		divide = constantUpTo
	case "two-row":
		constantUpTo = rng.Intn(len(cls) + 1)
	}
	for ci := 0; ci < constantUpTo; ci++ {
		v := int64(rng.Intn(domain))
		for _, r := range cls[ci] {
			vals[r] = v
		}
	}
	if divide >= 0 {
		c := cls[divide]
		vals[c[len(c)-1]] = vals[c[0]] + 1
	}
	return FromClasses(n, cls), vals
}
