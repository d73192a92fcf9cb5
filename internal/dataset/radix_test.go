package dataset

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestSortInt64sMatchesSlicesSort pins the map-free int ranking against a
// comparison sort: the column's distinct values are the input's values
// sorted and deduplicated, and every row's rank points back at its value.
func TestSortInt64sMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 5, 63, 64, 65, 1000, 5000} {
		v := make([]int64, n)
		for i := range v {
			switch rng.Intn(4) {
			case 0:
				v[i] = rng.Int63() - (1 << 62) // large positive and negative
			case 1:
				v[i] = int64(rng.Intn(10)) - 5 // dense small values with ties
			case 2:
				v[i] = -rng.Int63()
			default:
				v[i] = int64(rng.Int31())
			}
		}
		want := slices.Compact(slices.Sorted(slices.Values(v)))
		c := buildIntColumn("a", v)
		if !slices.Equal(c.intVals, want) || c.distinct != len(want) {
			t.Fatalf("n=%d: distinct values diverge from a comparison sort", n)
		}
		for i, x := range v {
			if c.intVals[c.ranks[i]] != x {
				t.Fatalf("n=%d row %d: rank %d names %d, want %d", n, i, c.ranks[i], c.intVals[c.ranks[i]], x)
			}
		}
	}
}

// TestSortFloat64sMatchesSortFloats pins the map-free float ranking against
// sort.Float64s: NaNs share rank 0 under one canonical NaN, -0 and +0 share
// a rank named by whichever comes first, and the rest are sorted and
// deduplicated.
func TestSortFloat64sMatchesSortFloats(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	negZero := math.Copysign(0, -1)
	for _, n := range []int{0, 1, 63, 64, 200, 4000} {
		v := make([]float64, n)
		for i := range v {
			switch rng.Intn(6) {
			case 0:
				v[i] = rng.NormFloat64() * 1e12
			case 1:
				v[i] = -rng.Float64()
			case 2:
				v[i] = 0
			case 3:
				v[i] = negZero // -0 sorts with +0
			case 4:
				v[i] = math.NaN()
			default:
				v[i] = float64(rng.Intn(7))
			}
		}
		var want []float64
		var firstZero float64
		zeroSeen, nanSeen := false, false
		for _, x := range v {
			switch {
			case math.IsNaN(x):
				nanSeen = true
			case x == 0:
				if !zeroSeen {
					firstZero, zeroSeen = x, true
				}
			default:
				want = append(want, x)
			}
		}
		if zeroSeen {
			want = append(want, firstZero)
		}
		sort.Float64s(want)
		want = slices.Compact(want)
		if nanSeen {
			want = append([]float64{math.NaN()}, want...)
		}
		c := buildFloatColumn("f", v)
		if len(c.floatVals) != len(want) || c.distinct != len(want) {
			t.Fatalf("n=%d: %d distinct values, want %d", n, len(c.floatVals), len(want))
		}
		for i := range want {
			if math.Float64bits(c.floatVals[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d idx %d: %v != %v", n, i, c.floatVals[i], want[i])
			}
		}
		for i, x := range v {
			got := c.floatVals[c.ranks[i]]
			if got != x && !(math.IsNaN(got) && math.IsNaN(x)) {
				t.Fatalf("n=%d row %d: rank %d names %v, want %v", n, i, c.ranks[i], got, x)
			}
		}
	}
}

// BenchmarkBuildWideIntTable measures dataset cold start on a wide table:
// the column builders rank every column, which the radix ranking turned
// from the dominant cost into a few linear passes.
func BenchmarkBuildWideIntTable(b *testing.B) {
	const rows, cols = 20_000, 32
	rng := rand.New(rand.NewSource(7))
	colData := make([][]int64, cols)
	for c := range colData {
		colData[c] = make([]int64, rows)
		for i := range colData[c] {
			colData[c][i] = rng.Int63n(1 << 40)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld := NewBuilder()
		for c := range colData {
			bld.AddInts("c"+string(rune('a'+c)), colData[c])
		}
		if _, err := bld.Build(); err != nil {
			b.Fatal(err)
		}
	}
}
