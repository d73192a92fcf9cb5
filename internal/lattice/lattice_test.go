package lattice

import (
	"math/rand"
	"reflect"
	"testing"

	"aod/internal/dataset"
	"aod/internal/partition"
)

func TestAttrSetBasics(t *testing.T) {
	s := NewAttrSet(0, 3, 5)
	if !s.Has(0) || !s.Has(3) || !s.Has(5) || s.Has(1) {
		t.Error("Has wrong")
	}
	if s.Card() != 3 {
		t.Errorf("Card = %d", s.Card())
	}
	if got := s.Add(1).Card(); got != 4 {
		t.Errorf("Add Card = %d", got)
	}
	if got := s.Remove(3); got.Has(3) || got.Card() != 2 {
		t.Errorf("Remove = %v", got)
	}
	if got := s.Attrs(); !reflect.DeepEqual(got, []int{0, 3, 5}) {
		t.Errorf("Attrs = %v", got)
	}
	if s.Min() != 0 || s.Max() != 5 {
		t.Errorf("Min/Max = %d/%d", s.Min(), s.Max())
	}
	var empty AttrSet
	if !empty.IsEmpty() || empty.Min() != -1 || empty.Max() != -1 {
		t.Error("empty set handling wrong")
	}
	if !s.Contains(NewAttrSet(0, 5)) || s.Contains(NewAttrSet(0, 1)) {
		t.Error("Contains wrong")
	}
	u := NewAttrSet(1, 3)
	if got := s.Union(u); got.Card() != 4 {
		t.Errorf("Union = %v", got)
	}
	if got := s.Intersect(u); got != NewAttrSet(3) {
		t.Errorf("Intersect = %v", got)
	}
	if got := s.Minus(u); got != NewAttrSet(0, 5) {
		t.Errorf("Minus = %v", got)
	}
}

func TestAttrSetStrings(t *testing.T) {
	s := NewAttrSet(0, 2)
	if got := s.String(); got != "{0,2}" {
		t.Errorf("String = %q", got)
	}
	if got := s.Format([]string{"pos", "exp", "sal"}); got != "{pos,sal}" {
		t.Errorf("Format = %q", got)
	}
	if got := NewAttrSet(9).Format([]string{"a"}); got != "{9}" {
		t.Errorf("Format out-of-range = %q", got)
	}
	if got := AttrSet(0).String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
	if got := NewAttrSet(10, 21).String(); got != "{10,21}" {
		t.Errorf("two-digit String = %q", got)
	}
}

func TestAttrSetForEachOrder(t *testing.T) {
	s := NewAttrSet(7, 1, 4)
	var got []int
	s.ForEach(func(a int) { got = append(got, a) })
	if !reflect.DeepEqual(got, []int{1, 4, 7}) {
		t.Errorf("ForEach order = %v", got)
	}
}

func TestPairIndexBijective(t *testing.T) {
	for numAttrs := 2; numAttrs <= 12; numAttrs++ {
		seen := make(map[int]bool)
		for a := 0; a < numAttrs; a++ {
			for b := a + 1; b < numAttrs; b++ {
				i := PairIndex(a, b, numAttrs)
				if i < 0 || i >= NumPairs(numAttrs) {
					t.Fatalf("index %d out of range for %d attrs", i, numAttrs)
				}
				if seen[i] {
					t.Fatalf("duplicate index %d for {%d,%d} (%d attrs)", i, a, b, numAttrs)
				}
				seen[i] = true
				if PairIndex(b, a, numAttrs) != i {
					t.Fatalf("PairIndex not symmetric for {%d,%d}", a, b)
				}
				ra, rb := pairFromIndex(i, numAttrs)
				if ra != a || rb != b {
					t.Fatalf("pairFromIndex(%d) = (%d,%d), want (%d,%d)", i, ra, rb, a, b)
				}
			}
		}
		if len(seen) != NumPairs(numAttrs) {
			t.Fatalf("%d attrs: %d indexes, want %d", numAttrs, len(seen), NumPairs(numAttrs))
		}
	}
}

func TestPairSetOperations(t *testing.T) {
	p := NewPairSet(10)
	if !p.IsEmpty() || p.Count() != 0 {
		t.Error("new set should be empty")
	}
	p.Add(2, 7)
	p.Add(9, 0) // unordered
	if !p.Has(7, 2) || !p.Has(0, 9) || p.Has(1, 2) {
		t.Error("Has wrong")
	}
	if p.Count() != 2 {
		t.Errorf("Count = %d", p.Count())
	}
	q := p.Clone()
	q.Remove(2, 7)
	if q.Has(2, 7) || !p.Has(2, 7) {
		t.Error("Clone not independent")
	}
	q.Add(3, 4)
	p.UnionWith(q)
	if !p.Has(3, 4) || p.Count() != 3 {
		t.Errorf("UnionWith: count = %d", p.Count())
	}
	var pairs [][2]int
	p.ForEach(func(a, b int) { pairs = append(pairs, [2]int{a, b}) })
	if len(pairs) != 3 {
		t.Errorf("ForEach visited %d pairs", len(pairs))
	}
	for _, pr := range pairs {
		if pr[0] >= pr[1] {
			t.Errorf("ForEach pair not ordered: %v", pr)
		}
	}
}

func TestPairSetRandomizedAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 50; iter++ {
		numAttrs := 2 + rng.Intn(30)
		p := NewPairSet(numAttrs)
		ref := make(map[[2]int]bool)
		for op := 0; op < 200; op++ {
			a, b := rng.Intn(numAttrs), rng.Intn(numAttrs)
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			if rng.Intn(3) == 0 {
				p.Remove(a, b)
				delete(ref, [2]int{a, b})
			} else {
				p.Add(a, b)
				ref[[2]int{a, b}] = true
			}
		}
		if p.Count() != len(ref) {
			t.Fatalf("count = %d, want %d", p.Count(), len(ref))
		}
		p.ForEach(func(a, b int) {
			if !ref[[2]int{a, b}] {
				t.Fatalf("unexpected pair {%d,%d}", a, b)
			}
		})
	}
}

func buildTestTable(t *testing.T, numAttrs, rows int, seed int64) *dataset.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := dataset.NewBuilder()
	for c := 0; c < numAttrs; c++ {
		vals := make([]int64, rows)
		for i := range vals {
			vals[i] = int64(rng.Intn(3))
		}
		b.AddInts(string(rune('a'+c)), vals)
	}
	tbl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func singlesOf(tbl *dataset.Table) []*partition.Stripped {
	singles := make([]*partition.Stripped, tbl.NumCols())
	for i := range singles {
		singles[i] = partition.Single(tbl.Column(i))
	}
	return singles
}

func TestLevelGenerationEnumeratesAllSets(t *testing.T) {
	l1 := Level1(5)
	if len(l1.Nodes) != 5 {
		t.Fatalf("level 1 size = %d", len(l1.Nodes))
	}
	want := []int{10, 10, 5, 1} // C(5,2), C(5,3), C(5,4), C(5,5)
	cur := l1
	for lv := 2; lv <= 5; lv++ {
		cur = NextLevel(cur, 5)
		if len(cur.Nodes) != want[lv-2] {
			t.Fatalf("level %d size = %d, want %d", lv, len(cur.Nodes), want[lv-2])
		}
		seen := make(map[AttrSet]bool)
		for _, n := range cur.Nodes {
			if n.Set.Card() != lv {
				t.Fatalf("level %d node has card %d", lv, n.Set.Card())
			}
			if seen[n.Set] {
				t.Fatalf("duplicate node %v", n.Set)
			}
			seen[n.Set] = true
		}
	}
	if next := NextLevel(cur, 5); len(next.Nodes) != 0 {
		t.Fatalf("level 6 should be empty, got %d nodes", len(next.Nodes))
	}
}

// TestNextLevelSkipsSupersetsOfDeadNodes: a set is built only when all of
// its subsets one level down are live nodes of the level, so a dead node
// and a set missing from the level both keep their supersets out.
func TestNextLevelSkipsSupersetsOfDeadNodes(t *testing.T) {
	l1 := Level1(5)
	l1.Lookup(NewAttrSet(4)).Dead = true
	l2 := NextLevel(l1, 5)
	if len(l2.Nodes) != 6 {
		t.Fatalf("level 2 has %d nodes, want the 6 pairs of {0,1,2,3}", len(l2.Nodes))
	}
	for _, n := range l2.Nodes {
		if n.Set.Has(4) {
			t.Errorf("built %v above the dead {4}", n.Set)
		}
	}
	l2.Lookup(NewAttrSet(0, 1)).Dead = true
	var got []AttrSet
	for _, n := range NextLevel(l2, 5).Nodes {
		got = append(got, n.Set)
	}
	want := []AttrSet{NewAttrSet(0, 2, 3), NewAttrSet(1, 2, 3)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("level 3 = %v, want %v", got, want)
	}
}

// TestLevelNodeOrder pins the order NextLevel emits: lexicographic by
// ascending attribute list, not ascending bitmask.
func TestLevelNodeOrder(t *testing.T) {
	var got []AttrSet
	for _, n := range NextLevel(Level1(4), 4).Nodes {
		got = append(got, n.Set)
	}
	if want := []AttrSet{3, 5, 9, 6, 10, 12}; !reflect.DeepEqual(got, want) {
		t.Fatalf("level 2 over 4 attributes: bitmasks %v, want %v", got, want)
	}
}

// TestLazyPartitionMatchesDirectProduct reads every level-3 context of a
// traversal from a partition memo: generating the levels builds nothing, and
// each partition the memo builds on first read equals the product of its
// single-attribute partitions.
func TestLazyPartitionMatchesDirectProduct(t *testing.T) {
	tbl := buildTestTable(t, 4, 40, 2)
	singles := singlesOf(tbl)
	memo := partition.NewMemo(tbl, singles, nil)
	l3 := NextLevel(NextLevel(Level1(4), 4), 4)
	if _, builds := memo.Stats(); builds != 0 {
		t.Fatalf("generating the levels built %d partitions", builds)
	}
	for _, n := range l3.Nodes {
		got := memo.Get(uint64(n.Set), nil)
		// Reference: fold singles directly.
		attrs := n.Set.Attrs()
		want := singles[attrs[0]]
		for _, a := range attrs[1:] {
			want = want.Product(singles[a])
		}
		if got.NumClasses() != want.NumClasses() || got.Size() != want.Size() {
			t.Fatalf("node %v: lazy partition %v != direct %v", n.Set, got, want)
		}
		if !got.Refines(want) || !want.Refines(got) {
			t.Fatalf("node %v: partitions differ", n.Set)
		}
	}
}

// TestPartitionReleaseAndRematerialize pins the memo's release rule: a
// partition read in the previous level survives one rotation, two rotations
// without a read release it and its split base, a later read rebuilds both
// identically, and the single-attribute partitions are never released.
func TestPartitionReleaseAndRematerialize(t *testing.T) {
	tbl := buildTestTable(t, 3, 30, 3)
	singles := singlesOf(tbl)
	memo := partition.NewMemo(tbl, singles, nil)
	set := uint64(NextLevel(NextLevel(Level1(3), 3), 3).Nodes[0].Set)
	p1 := memo.Get(set, nil)
	want := classesOf(p1)
	_, built := memo.Stats() // the set and its split base
	memo.Rotate()
	if memo.Get(set, nil) != p1 {
		t.Fatal("one rotation released a partition read in the previous level")
	}
	memo.Rotate()
	memo.Rotate()
	p2 := memo.Get(set, nil)
	if _, rebuilt := memo.Stats(); rebuilt != 2*built {
		t.Fatalf("%d builds after two rotations without a read, want %d", rebuilt, 2*built)
	}
	if !reflect.DeepEqual(classesOf(p2), want) {
		t.Fatal("re-materialized partition differs")
	}
	for a, p := range singles {
		if memo.Get(uint64(NewAttrSet(a)), nil) != p {
			t.Fatalf("the partition of attribute %d was released", a)
		}
	}
}

// classesOf copies p's classes, which outlive p's recycled buffers.
func classesOf(p *partition.Stripped) [][]int32 {
	out := make([][]int32, p.NumClasses())
	for i := range out {
		out[i] = append([]int32(nil), p.Class(i)...)
	}
	return out
}

func TestLevelLookup(t *testing.T) {
	l1 := Level1(3)
	if l1.Lookup(NewAttrSet(1)) == nil {
		t.Error("Lookup {1} failed")
	}
	if l1.Lookup(NewAttrSet(0, 1)) != nil {
		t.Error("Lookup of absent set should be nil")
	}
	var nilLevel *Level
	if nilLevel.Lookup(NewAttrSet(0)) != nil {
		t.Error("nil level Lookup should be nil")
	}
}
