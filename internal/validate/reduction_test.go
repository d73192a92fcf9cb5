package validate

import (
	"math"
	"math/rand"
	"testing"

	"aod/internal/dataset"
	"aod/internal/lis"
	"aod/internal/partition"
)

// TestTheorem34Reduction exercises the linear-time mapping from LIS-DEC
// instances to AOC validation instances used in the optimality proof
// (Theorem 3.4 / Section 6): for a list B of n distinct values and
// k = ⌊3·√n⌋, |LIS(B)| ≥ k iff the AOC A ∼ B on the table {(i, bᵢ)} is
// valid with threshold 1 − k/n.
func TestTheorem34Reduction(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	v := New()
	for iter := 0; iter < 200; iter++ {
		n := 4 + rng.Intn(60)
		// Distinct values: a random permutation (scaled).
		perm := rng.Perm(n)
		bvals := make([]int64, n)
		avals := make([]int64, n)
		seq := make([]int32, n)
		for i := 0; i < n; i++ {
			avals[i] = int64(i)
			bvals[i] = int64(perm[i]) * 3
			seq[i] = int32(perm[i])
		}
		k := int(math.Floor(3 * math.Sqrt(float64(n))))
		if k > n {
			k = n
		}
		lisLen := lis.LISLength(seq)

		tbl, err := dataset.NewBuilder().AddInts("a", avals).AddInts("b", bvals).Build()
		if err != nil {
			t.Fatal(err)
		}
		eps := 1 - float64(k)/float64(n)
		r := v.OptimalAOC(partition.Universe(n), tbl.Column(0), tbl.Column(1),
			Options{Threshold: eps, ComputeFullError: true})
		if (lisLen >= k) != r.Valid {
			t.Fatalf("iter %d (n=%d k=%d): |LIS|=%d but AOC valid=%v (e=%.4f, ε=%.4f)",
				iter, n, k, lisLen, r.Valid, r.Error, eps)
		}
		// With distinct values LNDS = LIS, so the minimal removal is n−|LIS|.
		if r.Removals != n-lisLen {
			t.Fatalf("iter %d: removals=%d, want n−|LIS|=%d", iter, r.Removals, n-lisLen)
		}
	}
}

// LNDSFunc (the generic comparator form) must agree with the int32 LNDS.
func TestLNDSFuncAgreesWithLNDS(t *testing.T) {
	rng := rand.New(rand.NewSource(124))
	for iter := 0; iter < 300; iter++ {
		n := rng.Intn(50)
		seq := make([]int32, n)
		for i := range seq {
			seq[i] = int32(rng.Intn(8))
		}
		want := lis.LNDS(seq)
		got := lis.LNDSFunc(n, func(i, j int) int {
			switch {
			case seq[i] < seq[j]:
				return -1
			case seq[i] > seq[j]:
				return 1
			default:
				return 0
			}
		})
		if len(got) != len(want) {
			t.Fatalf("iter %d: LNDSFunc len %d, LNDS len %d (seq %v)", iter, len(got), len(want), seq)
		}
		for k := 1; k < len(got); k++ {
			if got[k-1] >= got[k] || seq[got[k-1]] > seq[got[k]] {
				t.Fatalf("iter %d: LNDSFunc result invalid: %v over %v", iter, got, seq)
			}
		}
	}
}

// A rejected candidate's error is a lower bound from the swap matching or a
// stopped count: it must stay in [0, 1] and never exceed the full error.
func TestSampledEstimateBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(125))
	v := New()
	aborted := 0
	for iter := 0; iter < 100; iter++ {
		rows := 2 + rng.Intn(100)
		b := dataset.NewBuilder()
		for c := 0; c < 2; c++ {
			vals := make([]int64, rows)
			for i := range vals {
				vals[i] = int64(rng.Intn(10))
			}
			b.AddInts(string(rune('a'+c)), vals)
		}
		tbl, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		ctx := partition.Universe(rows)
		full := v.OptimalAOC(ctx, tbl.Column(0), tbl.Column(1), Options{ComputeFullError: true})
		for _, eps := range []float64{0, 0.05, 0.1, 0.25} {
			r := v.OptimalAOC(ctx, tbl.Column(0), tbl.Column(1), Options{Threshold: eps})
			if !r.Aborted {
				continue
			}
			aborted++
			if r.Error < 0 || r.Error > 1 || r.Error > full.Error {
				t.Fatalf("iter %d ε=%.2f: aborted error %g outside [0, min(1, full %g)]", iter, eps, r.Error, full.Error)
			}
		}
	}
	if aborted == 0 {
		t.Fatal("no candidate was rejected early")
	}
}
