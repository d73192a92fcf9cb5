package partition

import (
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"testing"

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

// TestMemoAliasedSplitOutlivesItsTwin builds a set whose split leaves its
// base unchanged, so the set's slot and its base's slot hold one partition,
// and then drops one slot, the other or both at a rotation. Whatever
// survives must keep its classes while later splits draw buffers from the
// arena; a bounded arena makes that reuse deterministic (last in, first
// out), so a partition recycled while a slot still held it would be
// overwritten by the next split.
func TestMemoAliasedSplitOutlivesItsTwin(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	const rows = 300
	c, x, y := make([]int64, rows), make([]int64, rows), make([]int64, rows)
	for i := range x {
		x[i], y[i] = int64(rng.Intn(6)), int64(rng.Intn(6))
		c[i] = x[i] / 2 // x determines c, so c divides no class of Π_{x,y}
	}
	tbl := mustTable(t, map[string][]int64{"c": c, "x": x, "y": y}, []string{"c", "x", "y"})
	const base, set = 0b110, 0b111 // Π_{x,y} = Π_y.SplitBy(x); Π_{c,x,y} = Π_{x,y}.SplitBy(c)
	wantBase := Single(tbl.Column(2)).SplitBy(tbl.Column(1))
	wantSet := wantBase.SplitBy(tbl.Column(0))
	if !sameLayout(wantSet, wantBase) || sameLayout(wantBase, Single(tbl.Column(2))) {
		t.Fatal("the table must leave the set's split a copy of its base and divide the base's own")
	}
	for _, keep := range []string{"set", "base", "neither"} {
		memo := NewMemo(tbl, nil, NewArenaLimit(1<<20))
		memo.Rotate()
		if memo.Get(base, nil) != memo.Get(set, nil) {
			t.Fatalf("keep %s: the set's split copied its unchanged base", keep)
		}
		// Two rotations drop every slot not read in between.
		for r := 0; r < 2; r++ {
			memo.Rotate()
			switch keep {
			case "set":
				memo.Get(set, nil)
			case "base":
				memo.Get(base, nil)
			}
		}
		// Splits that draw from the arena: a recycled twin would be handed
		// to them, and two recycles of it to both.
		other := []*Stripped{
			memo.arena.Split(Single(tbl.Column(0)), tbl.Column(2)),
			memo.arena.Split(Single(tbl.Column(1)), tbl.Column(2)),
		}
		if want := Single(tbl.Column(0)).SplitBy(tbl.Column(2)); !sameLayout(other[0], want) {
			t.Errorf("keep %s: a later split lost its classes to another: %v, want %v", keep, other[0], want)
		}
		switch keep {
		case "set":
			if got := memo.Get(set, nil); !sameLayout(got, wantSet) {
				t.Errorf("keep set: the set's partition changed to %v, want %v", got, wantSet)
			}
		case "base":
			if got := memo.Get(base, nil); !sameLayout(got, wantBase) {
				t.Errorf("keep base: the base's partition changed to %v, want %v", got, wantBase)
			}
		}
	}
}
