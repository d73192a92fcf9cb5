package partition

import (
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"aod/internal/dataset"
	"aod/internal/gen"
)

// TestMemoConcurrentReadersBuildEachSetOnce walks a full lattice level by
// level, rotating the memo between levels like a traversal does, while
// several goroutines read every set of the level in different orders. Each
// set must be split exactly once, and every read must return the partition
// of the split chain Π_S = Π_{S∖{min S}}.SplitBy(min S) byte for byte, and
// its class ids.
func TestMemoConcurrentReadersBuildEachSetOnce(t *testing.T) {
	tbl := gen.NCVoter(gen.NCVoterConfig{Rows: 1500, Attrs: 10, Seed: 42})
	cols := tbl.NumCols()
	byLevel := make([][]uint64, cols+1)
	for set := uint64(0); set < 1<<cols; set++ {
		byLevel[bits.OnesCount64(set)] = append(byLevel[bits.OnesCount64(set)], set)
	}
	want := map[uint64]*Stripped{0: Universe(tbl.NumRows())}
	memo := NewMemo(tbl, nil, nil)
	const readers = 4
	var built uint64
	for level := 0; level <= cols; level++ {
		sets := byLevel[level]
		for _, set := range sets {
			if level > 0 {
				c := bits.TrailingZeros64(set)
				want[set] = want[set&^(1<<c)].SplitBy(tbl.Column(c))
			}
		}
		memo.Rotate()
		var wg sync.WaitGroup
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range sets {
					set := sets[(i+g*len(sets)/readers)%len(sets)]
					if got := memo.Get(set, nil); !sameLayout(got, want[set]) {
						t.Errorf("set %#x: memo partition %v differs from the split chain's %v", set, got, want[set])
					}
					if !slices.Equal(memo.ClassIDs(set), want[set].ClassIDs()) {
						t.Errorf("set %#x: memo class ids differ from the split chain's", set)
					}
				}
			}()
		}
		wg.Wait()
		_, builds := memo.Stats()
		if level >= 2 && builds-built != uint64(len(sets)) {
			t.Fatalf("level %d: %d splits for %d sets", level, builds-built, len(sets))
		}
		built = builds
	}
}

// chainOf returns Π_set by the plain recursive split chain
// Π_S = Π_{S∖{min S}}.SplitBy(min S), memoized in chain.
func chainOf(tbl *dataset.Table, chain map[uint64]*Stripped, set uint64) *Stripped {
	if p, ok := chain[set]; ok {
		return p
	}
	var p *Stripped
	switch c := bits.TrailingZeros64(set); {
	case set == 0:
		p = Universe(tbl.NumRows())
	case set&(set-1) == 0:
		p = Single(tbl.Column(c))
	default:
		p = chainOf(tbl, chain, set&^(1<<c)).SplitBy(tbl.Column(c))
	}
	chain[set] = p
	return p
}

// TestMemoKeepsClassOrderWhenTheDependencyReachesBelow reads every set of a
// table where a → c holds with a below c. Π_{a,c,b} and Π_{a,b} then hold
// the same classes in different orders, so serving one for the other would
// reorder removal rows: every set, read again after its slot was dropped,
// must keep the split chain's bytes.
func TestMemoKeepsClassOrderWhenTheDependencyReachesBelow(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const rows = 200
	a, c, b := make([]int64, rows), make([]int64, rows), make([]int64, rows)
	for i := range a {
		a[i], b[i] = int64(rng.Intn(6)), int64(rng.Intn(3))
		c[i] = a[i] / 2
	}
	tbl := mustTable(t, map[string][]int64{"a": a, "c": c, "b": b}, []string{"a", "c", "b"})
	const set, ab = 0b111, 0b101
	chain := map[uint64]*Stripped{}
	full, twin := chainOf(tbl, chain, set), chainOf(tbl, chain, ab)
	if sameLayout(full, twin) || !full.Refines(twin) || !twin.Refines(full) {
		t.Fatal("the table must give Π_{a,c,b} the classes of Π_{a,b} in another order")
	}
	memo := NewMemo(tbl, nil, nil)
	for round := 0; round < 3; round++ {
		// Two rotations without a read drop every set, so each round
		// builds them all again from recycled buffers.
		memo.Rotate()
		memo.Rotate()
		for s := uint64(1); s < 1<<3; s++ {
			if got := memo.Get(s, nil); !sameLayout(got, chainOf(tbl, chain, s)) {
				t.Fatalf("round %d, set %#b: memo partition %v, want the split chain's %v", round, s, got, chainOf(tbl, chain, s))
			}
		}
	}
}

// fuzzTable decodes a table of 1–8 integer columns and 0–64 rows:
// spec[0] picks the columns and spec[1] the rows; the next byte per column
// gives its domain (1–16 values) or, with the top bit set, derives it as
// v/d from another column (bits 0–2 the source, bits 3–4 d−1), so that
// exact dependencies and splits that divide no class occur; the remaining
// bytes, cycled, are the values.
func fuzzTable(t *testing.T, spec []byte) *dataset.Table {
	if len(spec) < 2 {
		return nil
	}
	cols, rows := 1+int(spec[0])%8, int(spec[1])%65
	spec = spec[2:]
	kinds := make([]byte, cols)
	n := copy(kinds, spec)
	vals := spec[n:]
	data := make([][]int64, cols)
	for j := range data {
		data[j] = make([]int64, rows)
		for r := range data[j] {
			if len(vals) > 0 {
				data[j][r] = int64(vals[(r*cols+j)%len(vals)]) % int64(1+kinds[j]&15)
			}
		}
	}
	for j, k := range kinds {
		if src := int(k&7) % cols; k&0x80 != 0 && src != j {
			for r := range data[j] {
				data[j][r] = data[src][r] / int64(1+(k>>3)&3)
			}
		}
	}
	b := dataset.NewBuilder()
	for j := range data {
		b.AddInts(string(rune('a'+j)), data[j])
	}
	tbl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// FuzzMemoMatchesSplitChain replays a sequence of reads and rotations
// against a memo over a decoded table (fuzzTable). Each op is two bytes, a
// kind (Get, ClassIDs or Rotate) and a set. Every Get and ClassIDs result
// must equal the plain recursive split chain byte for byte, and the
// partitions read since the rotation before last must still hold their
// bytes when the next rotation comes, while a bounded arena hands recycled
// buffers straight to the next split.
func FuzzMemoMatchesSplitChain(f *testing.F) {
	// Columns a, c, d with c = d/2, c below d: the split of Π_d by c
	// divides no class, and {a,c,d} holds the classes of Π_{a,d} in the
	// same order, read across rotations.
	f.Add([]byte{2, 40, 4, 0x8a, 7, 1, 5, 2, 6, 3, 4, 0, 7, 2, 5, 1, 3, 6},
		[]byte{0, 0b110, 3, 0, 0, 0b101, 0, 0b111, 2, 0b111, 3, 0, 3, 0, 0, 0b111, 0, 0b101, 2, 0b101})
	// Columns a, c, b with c = a/2, a below c: Π_{a,c,b} holds the classes
	// of Π_{a,b} in another order, so no read may return one for the other.
	f.Add([]byte{2, 50, 5, 0x88, 2, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 7},
		[]byte{0, 0b011, 0, 0b101, 0, 0b110, 0, 0b111, 3, 0, 3, 0, 3, 0, 0, 0b101, 0, 0b110, 0, 0b111, 2, 0b111, 3, 0, 3, 0, 3, 0, 0, 0b111})
	// Eight columns, three of them derived, read across rotations.
	f.Add([]byte{7, 64, 3, 0x8a, 5, 0x97, 2, 7, 0x81, 4, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 11, 13},
		[]byte{0, 0x06, 0, 0x50, 0, 0x0c, 3, 0, 0, 0x0f, 0, 0xf0, 3, 0, 0, 0xff, 2, 0x3c, 3, 0, 0, 0x7e, 3, 0, 3, 0, 0, 0xff, 2, 0x81})
	f.Fuzz(func(t *testing.T, spec, ops []byte) {
		tbl := fuzzTable(t, spec)
		if tbl == nil {
			return
		}
		if len(ops) > 512 {
			ops = ops[:512]
		}
		all := uint64(1)<<tbl.NumCols() - 1
		chain := map[uint64]*Stripped{}
		memo := NewMemo(tbl, nil, NewArenaLimit(1<<16))
		type read struct {
			set uint64
			p   *Stripped
		}
		var live, older []read
		for i := 0; i+1 < len(ops); i += 2 {
			set := uint64(ops[i+1]) & all
			want := chainOf(tbl, chain, set)
			switch ops[i] % 4 {
			case 0, 1:
				got := memo.Get(set, nil)
				if !sameLayout(got, want) {
					t.Fatalf("op %d: Get(%#b) = %v, want the split chain's %v", i/2, set, got, want)
				}
				live = append(live, read{set, got})
			case 2:
				if got := memo.ClassIDs(set); !slices.Equal(got, want.ClassIDs()) {
					t.Fatalf("op %d: ClassIDs(%#b) = %v, want %v", i/2, set, got, want.ClassIDs())
				}
			case 3:
				for _, r := range append(older, live...) {
					if !sameLayout(r.p, chainOf(tbl, chain, r.set)) {
						t.Fatalf("op %d: Π_%#b changed to %v before its slot was dropped", i/2, r.set, r.p)
					}
				}
				memo.Rotate()
				older, live = live, nil
			}
		}
	})
}
