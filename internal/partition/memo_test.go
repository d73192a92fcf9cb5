package partition

import (
	"math/bits"
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
