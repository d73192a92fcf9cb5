package tane

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"aod/internal/dataset"
	"aod/internal/lattice"
)

func randomTable(rng *rand.Rand, rows, attrs, domain int) *dataset.Table {
	b := dataset.NewBuilder()
	for c := 0; c < attrs; c++ {
		vals := make([]int64, rows)
		for i := range vals {
			vals[i] = int64(rng.Intn(domain))
		}
		b.AddInts(fmt.Sprintf("c%d", c), vals)
	}
	tbl, err := b.Build()
	if err != nil {
		panic(err)
	}
	return tbl
}

func fdKeySet(r *Result) map[string]float64 {
	m := make(map[string]float64, len(r.FDs))
	for _, fd := range r.FDs {
		m[fmt.Sprintf("%d->%d", uint64(fd.LHS), fd.RHS)] = fd.Error
	}
	return m
}

func TestDifferentialAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	thresholds := []float64{0, 0.1, 0.3}
	iters := 80
	if testing.Short() {
		iters = 20
	}
	for iter := 0; iter < iters; iter++ {
		rows := 2 + rng.Intn(20)
		attrs := 2 + rng.Intn(4)
		tbl := randomTable(rng, rows, attrs, 2+rng.Intn(4))
		eps := thresholds[iter%len(thresholds)]
		checkAgainstReference(t, fmt.Sprintf("iter %d (ε=%.1f rows=%d attrs=%d)", iter, eps, rows, attrs), tbl, eps)
	}
	// With no rows every g3 error is 0; with one row every FD holds.
	for rows := 0; rows <= 1; rows++ {
		tbl := randomTable(rng, rows, 3, 2)
		for _, eps := range thresholds {
			checkAgainstReference(t, fmt.Sprintf("%d-row table (ε=%.1f)", rows, eps), tbl, eps)
		}
	}
}

// checkAgainstReference asserts that Discover and ReferenceDiscover find the
// same FDs with the same errors.
func checkAgainstReference(t *testing.T, label string, tbl *dataset.Table, eps float64) {
	t.Helper()
	cfg := Config{Threshold: eps}
	got, err := Discover(tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReferenceDiscover(tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, w := fdKeySet(got), fdKeySet(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d FDs, reference %d\ngot %v\nwant %v", label, len(g), len(w), got.FDs, want.FDs)
	}
	for k, e := range w {
		ge, ok := g[k]
		if !ok {
			t.Fatalf("%s: missing FD %s", label, k)
		}
		if math.Abs(ge-e) > 1e-9 {
			t.Fatalf("%s: FD %s error %g, want %g", label, k, ge, e)
		}
	}
}

func TestExactFDsOnKnownTable(t *testing.T) {
	// b = a/2 (FD a→b), c random: a→b must be found, nothing determines c.
	rng := rand.New(rand.NewSource(8))
	a := make([]int64, 60)
	bb := make([]int64, 60)
	cc := make([]int64, 60)
	for i := range a {
		a[i] = int64(rng.Intn(20))
		bb[i] = a[i] / 2
		cc[i] = int64(rng.Intn(50))
	}
	tbl, err := dataset.NewBuilder().AddInts("a", a).AddInts("b", bb).AddInts("c", cc).Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Discover(tbl, Config{Threshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	foundAB := false
	for _, fd := range res.FDs {
		if fd.LHS == lattice.NewAttrSet(0) && fd.RHS == 1 {
			foundAB = true
			if fd.Error != 0 {
				t.Errorf("a→b error = %g, want 0", fd.Error)
			}
		}
		if fd.RHS == 2 && fd.LHS.Card() < 2 {
			t.Errorf("spurious small FD onto random column: %v", fd)
		}
	}
	if !foundAB {
		t.Errorf("a→b not found; FDs: %v", res.FDs)
	}
}

func TestMinimalityNoRedundantSupersets(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 30; iter++ {
		tbl := randomTable(rng, 2+rng.Intn(25), 4, 3)
		res, err := Discover(tbl, Config{Threshold: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		for i, fd1 := range res.FDs {
			for j, fd2 := range res.FDs {
				if i == j || fd1.RHS != fd2.RHS {
					continue
				}
				if fd1.LHS != fd2.LHS && fd2.LHS.Contains(fd1.LHS) {
					t.Fatalf("iter %d: %v subsumes %v", iter, fd1, fd2)
				}
			}
		}
	}
}

func TestMaxLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	tbl := randomTable(rng, 30, 5, 2)
	res, err := Discover(tbl, Config{Threshold: 0, MaxLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range res.FDs {
		if fd.LHS.Card() > 1 {
			t.Errorf("FD %v exceeds MaxLevel 2", fd)
		}
	}
	ref, err := ReferenceDiscover(tbl, Config{Threshold: 0, MaxLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FDs) != len(ref.FDs) {
		t.Errorf("MaxLevel: %d FDs, reference %d", len(res.FDs), len(ref.FDs))
	}
}

func TestConfigErrors(t *testing.T) {
	tbl := randomTable(rand.New(rand.NewSource(1)), 5, 2, 2)
	if _, err := Discover(tbl, Config{Threshold: -1}); err == nil {
		t.Error("want error for negative threshold")
	}
	if _, err := Discover(tbl, Config{Threshold: 2}); err == nil {
		t.Error("want error for threshold > 1")
	}
	wide := dataset.NewBuilder()
	for c := 0; c < 65; c++ {
		wide.AddInts(fmt.Sprintf("c%d", c), []int64{1})
	}
	wt, _ := wide.Build()
	if _, err := Discover(wt, Config{}); err == nil {
		t.Error("want error for too many attributes")
	}
	if _, err := ReferenceDiscover(wt, Config{}); err == nil {
		t.Error("reference: want error for too many attributes")
	}
}

func TestTimeLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tbl := randomTable(rng, 5000, 12, 4)
	res, err := Discover(tbl, Config{Threshold: 0.2, TimeLimit: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Skip("machine too fast; skipping")
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tbl := randomTable(rng, 40, 5, 3)
	r1, _ := Discover(tbl, Config{Threshold: 0.1})
	r2, _ := Discover(tbl, Config{Threshold: 0.1})
	if len(r1.FDs) != len(r2.FDs) {
		t.Fatal("non-deterministic FD count")
	}
	for i := range r1.FDs {
		if r1.FDs[i] != r2.FDs[i] {
			t.Fatalf("FD %d differs: %v vs %v", i, r1.FDs[i], r2.FDs[i])
		}
	}
}

func TestFDFormat(t *testing.T) {
	fd := FD{LHS: lattice.NewAttrSet(0, 2), RHS: 1, Error: 0.5}
	if got := fd.String(); got != "{0,2} -> 1 (e=0.5000)" {
		t.Errorf("String = %q", got)
	}
	if got := fd.Format([]string{"a", "b", "c"}); got != "{a,c} -> b (e=0.5000)" {
		t.Errorf("Format = %q", got)
	}
}

func TestStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tbl := randomTable(rng, 30, 4, 3)
	res, err := Discover(tbl, Config{Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if res.LevelsProcessed == 0 || res.NodesProcessed == 0 || res.Candidates == 0 {
		t.Errorf("stats not populated: %+v", res)
	}
	if res.TotalTime <= 0 {
		t.Error("TotalTime not measured")
	}
}
