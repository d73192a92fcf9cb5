package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"aod/internal/dataset"
	"aod/internal/lattice"
	"aod/internal/partition"
	"aod/internal/validate"
)

func paperTable1(t *testing.T) *dataset.Table {
	t.Helper()
	tbl, err := dataset.NewBuilder().
		AddStrings("pos", []string{"sec", "sec", "dev", "sec", "dev", "dev", "dev", "dev", "dir"}).
		AddInts("exp", []int64{1, 3, 1, 5, 3, 5, 5, -1, 8}).
		AddInts("sal", []int64{20, 25, 30, 40, 50, 55, 60, 90, 200}).
		AddStrings("taxGrp", []string{"A", "A", "A", "B", "B", "B", "B", "C", "C"}).
		AddInts("perc", []int64{10, 10, 1, 30, 3, 30, 3, 8, 8}).
		AddInts("tax", []int64{20, 25, 3, 120, 15, 165, 18, 72, 160}).
		AddInts("bonus", []int64{1, 1, 3, 2, 4, 4, 4, 7, 10}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

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

type ocKey struct {
	ctx  lattice.AttrSet
	a, b int
}
type ofdKey struct {
	ctx lattice.AttrSet
	a   int
}

func ocSet(r *Result) map[ocKey]float64 {
	m := make(map[ocKey]float64, len(r.OCs))
	for _, d := range r.OCs {
		m[ocKey{d.Context, d.A, d.B}] = d.Error
	}
	return m
}

func ofdSet(r *Result) map[ofdKey]float64 {
	m := make(map[ofdKey]float64, len(r.OFDs))
	for _, d := range r.OFDs {
		m[ofdKey{d.Context, d.A}] = d.Error
	}
	return m
}

// TestDifferentialAgainstReference is the semantic anchor of the engine: on
// hundreds of random small tables, plus a 0-row and a 1-row table, the
// engine's output (exact and optimal configurations, several thresholds) must
// equal the brute-force reference exactly — same minimal dependencies, same
// approximation factors.
func TestDifferentialAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	thresholds := []float64{0, 0.1, 0.25, 0.5}
	validators := []ValidatorKind{ValidatorExact, ValidatorOptimal}
	iters := 120
	if testing.Short() {
		iters = 30
	}
	for iter := 0; iter < iters; iter++ {
		rows := 2 + rng.Intn(20)
		attrs := 2 + rng.Intn(4) // 2..5
		domain := 2 + rng.Intn(4)
		tbl := randomTable(rng, rows, attrs, domain)
		eps := thresholds[iter%len(thresholds)]
		vk := validators[iter%len(validators)]
		label := fmt.Sprintf("iter %d (%v ε=%.2f rows=%d attrs=%d)", iter, vk, eps, rows, attrs)
		checkAgainstReference(t, label, tbl, Config{Threshold: eps, Validator: vk, IncludeOFDs: true})
	}
	// With no rows every error is 0; with one row every dependency holds.
	for rows := 0; rows <= 1; rows++ {
		tbl := randomTable(rng, rows, 3, 2)
		for _, vk := range validators {
			for _, eps := range thresholds {
				label := fmt.Sprintf("%d-row table (%v ε=%.2f)", rows, vk, eps)
				checkAgainstReference(t, label, tbl, Config{Threshold: eps, Validator: vk, IncludeOFDs: true})
			}
		}
	}
}

// checkAgainstReference asserts that Discover and ReferenceDiscover find the
// same OCs and OFDs with the same errors.
func checkAgainstReference(t *testing.T, label string, tbl *dataset.Table, cfg Config) {
	t.Helper()
	got, err := Discover(tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReferenceDiscover(tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gotOC, wantOC := ocSet(got), ocSet(want)
	if len(gotOC) != len(wantOC) {
		t.Fatalf("%s: %d OCs, reference %d\n got: %v\nwant: %v", label, len(gotOC), len(wantOC), got.OCs, want.OCs)
	}
	for k, e := range wantOC {
		ge, ok := gotOC[k]
		if !ok {
			t.Fatalf("%s: missing OC %v: %d ∼ %d", label, k.ctx, k.a, k.b)
		}
		if math.Abs(ge-e) > 1e-9 {
			t.Fatalf("%s: OC %v error %g, reference %g", label, k, ge, e)
		}
	}
	gotOFD, wantOFD := ofdSet(got), ofdSet(want)
	if len(gotOFD) != len(wantOFD) {
		t.Fatalf("%s: %d OFDs, reference %d\n got: %v\nwant: %v", label, len(gotOFD), len(wantOFD), got.OFDs, want.OFDs)
	}
	for k, e := range wantOFD {
		ge, ok := gotOFD[k]
		if !ok {
			t.Fatalf("%s: missing OFD %v: []↦%d", label, k.ctx, k.a)
		}
		if math.Abs(ge-e) > 1e-9 {
			t.Fatalf("%s: OFD %v error %g, reference %g", label, k, ge, e)
		}
	}
}

// With MaxLevel bounds the engine must still match the reference.
func TestDifferentialWithMaxLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	for iter := 0; iter < 40; iter++ {
		tbl := randomTable(rng, 2+rng.Intn(15), 4, 3)
		cfg := Config{Threshold: 0.2, Validator: ValidatorOptimal, IncludeOFDs: true, MaxLevel: 2 + rng.Intn(2)}
		got, err := Discover(tbl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ReferenceDiscover(tbl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(ocSet(got)) != len(ocSet(want)) || len(ofdSet(got)) != len(ofdSet(want)) {
			t.Fatalf("iter %d: MaxLevel mismatch: got %d/%d OCs/OFDs, want %d/%d",
				iter, len(got.OCs), len(got.OFDs), len(want.OCs), len(want.OFDs))
		}
	}
}

// Every OC reported under the iterative validator must be truly valid (its
// real approximation factor ≤ ε), even though the greedy estimate used to
// admit it is an overestimate; and the iterative engine must never find an
// OC that is valid in a strictly smaller context it also reported.
func TestIterativeReportsOnlyTrulyValidOCs(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	v := validate.New()
	for iter := 0; iter < 60; iter++ {
		rows := 2 + rng.Intn(20)
		tbl := randomTable(rng, rows, 4, 3)
		eps := []float64{0.1, 0.2, 0.3}[iter%3]
		res, err := Discover(tbl, Config{Threshold: eps, Validator: ValidatorIterative})
		if err != nil {
			t.Fatal(err)
		}
		for _, oc := range res.OCs {
			// Recompute the true error with the optimal validator.
			ctx := contextPartition(tbl, oc.Context)
			r := v.OptimalAOC(ctx, tbl.Column(oc.A), tbl.Column(oc.B),
				validate.Options{Threshold: 1})
			if float64(r.Removals)/float64(rows) > eps+1e-9 {
				t.Fatalf("iter %d: iterative reported invalid OC %v (true e=%g > ε=%g)",
					iter, oc, float64(r.Removals)/float64(rows), eps)
			}
			// The iterative estimate can only overestimate.
			if oc.Removals < r.Removals {
				t.Fatalf("iter %d: iterative removals %d below minimal %d", iter, oc.Removals, r.Removals)
			}
		}
	}
}

func contextPartition(tbl *dataset.Table, ctx lattice.AttrSet) *partition.Stripped {
	p := partition.Universe(tbl.NumRows())
	ctx.ForEach(func(a int) {
		p = p.Product(partition.Single(tbl.Column(a)))
	})
	return p
}

func TestDiscoverPaperTable1(t *testing.T) {
	tbl := paperTable1(t)
	// ε = 0.12 admits {pos}: exp ∼ sal (e = 1/9 ≈ 0.111).
	res, err := Discover(tbl, Config{Threshold: 0.12, Validator: ValidatorOptimal, IncludeOFDs: true})
	if err != nil {
		t.Fatal(err)
	}
	pos, exp, sal := tbl.ColumnIndex("pos"), tbl.ColumnIndex("exp"), tbl.ColumnIndex("sal")
	found := false
	for _, oc := range res.OCs {
		if oc.Context == lattice.NewAttrSet(pos) &&
			((oc.A == exp && oc.B == sal) || (oc.A == sal && oc.B == exp)) {
			found = true
			if oc.Removals != 1 {
				t.Errorf("{pos}: exp ∼ sal removals = %d, want 1", oc.Removals)
			}
		}
	}
	if !found {
		t.Errorf("{pos}: exp ∼ sal not discovered; OCs: %v", res.OCs)
	}
	// The exact configuration must find {}: sal ∼ taxGrp (it holds exactly,
	// and neither side is constant).
	exact, err := Discover(tbl, Config{Validator: ValidatorExact, IncludeOFDs: true})
	if err != nil {
		t.Fatal(err)
	}
	taxGrp := tbl.ColumnIndex("taxGrp")
	foundExact := false
	for _, oc := range exact.OCs {
		if oc.Context.IsEmpty() && ((oc.A == sal && oc.B == taxGrp) || (oc.A == taxGrp && oc.B == sal)) {
			foundExact = true
		}
	}
	if !foundExact {
		t.Errorf("{}: sal ∼ taxGrp not discovered exactly; OCs: %v", exact.OCs)
	}
}

func TestDiscoverDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	tbl := randomTable(rng, 30, 5, 3)
	cfg := Config{Threshold: 0.15, Validator: ValidatorOptimal, IncludeOFDs: true}
	r1, err := Discover(tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Discover(tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.OCs) != len(r2.OCs) || len(r1.OFDs) != len(r2.OFDs) {
		t.Fatal("non-deterministic result sizes")
	}
	for i := range r1.OCs {
		if r1.OCs[i].Context != r2.OCs[i].Context ||
			r1.OCs[i].A != r2.OCs[i].A || r1.OCs[i].B != r2.OCs[i].B ||
			r1.OCs[i].Error != r2.OCs[i].Error {
			t.Fatalf("OC order differs at %d: %v vs %v", i, r1.OCs[i], r2.OCs[i])
		}
	}
}

func TestDiscoverCollectRemovalSets(t *testing.T) {
	tbl := paperTable1(t)
	res, err := Discover(tbl, Config{
		Threshold: 0.12, Validator: ValidatorOptimal,
		IncludeOFDs: true, CollectRemovalSets: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, oc := range res.OCs {
		if len(oc.RemovalRows) != oc.Removals {
			t.Errorf("OC %v: removal rows %d != removals %d", oc, len(oc.RemovalRows), oc.Removals)
		}
	}
	for _, ofd := range res.OFDs {
		if len(ofd.RemovalRows) != ofd.Removals {
			t.Errorf("OFD %v: removal rows %d != removals %d", ofd, len(ofd.RemovalRows), ofd.Removals)
		}
	}
	// {pos}: exp ∼ sal should carry removal row t8 (index 7).
	pos, exp, sal := tbl.ColumnIndex("pos"), tbl.ColumnIndex("exp"), tbl.ColumnIndex("sal")
	for _, oc := range res.OCs {
		if oc.Context == lattice.NewAttrSet(pos) && oc.A == min(exp, sal) && oc.B == max(exp, sal) {
			if len(oc.RemovalRows) != 1 || oc.RemovalRows[0] != 7 {
				t.Errorf("removal rows = %v, want [7]", oc.RemovalRows)
			}
		}
	}
}

func TestDiscoverIncludeOFDsFlag(t *testing.T) {
	tbl := paperTable1(t)
	res, err := Discover(tbl, Config{Threshold: 0.1, Validator: ValidatorOptimal})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OFDs) != 0 {
		t.Errorf("OFDs reported without IncludeOFDs: %v", res.OFDs)
	}
	// Stats still count them (validation always runs).
	if res.Stats.OFDsFound() == 0 {
		t.Error("stats should still count OFDs found")
	}
}

func TestDiscoverTimeLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	tbl := randomTable(rng, 2000, 10, 4)
	res, err := Discover(tbl, Config{
		Threshold: 0.3, Validator: ValidatorIterative, TimeLimit: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.TimedOut {
		t.Skip("machine too fast for 1ms limit; skipping")
	}
}

func TestDiscoverConfigErrors(t *testing.T) {
	tbl := paperTable1(t)
	cases := []Config{
		{Threshold: -0.1},
		{Threshold: 1.5},
		{Validator: ValidatorKind(9)},
		{MaxLevel: -1},
	}
	for i, cfg := range cases {
		if _, err := Discover(tbl, cfg); err == nil {
			t.Errorf("case %d: want config error", i)
		}
	}
	wide := dataset.NewBuilder()
	for c := 0; c < 65; c++ {
		wide.AddInts(fmt.Sprintf("c%d", c), []int64{1, 2})
	}
	wt, err := wide.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Discover(wt, Config{}); err == nil {
		t.Error("want error for >64 attributes")
	}
}

func TestDiscoverSingleAttributeAndSingleRow(t *testing.T) {
	one, err := dataset.NewBuilder().AddInts("a", []int64{1, 1, 2}).Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Discover(one, Config{Threshold: 0.5, Validator: ValidatorOptimal, IncludeOFDs: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OCs) != 0 {
		t.Error("single attribute cannot have OCs")
	}
	// {}: []↦a with e = 1/3 ≤ 0.5 is minimal and valid.
	if len(res.OFDs) != 1 || !res.OFDs[0].Context.IsEmpty() {
		t.Errorf("OFDs = %v, want one with empty context", res.OFDs)
	}

	row, err := dataset.NewBuilder().AddInts("a", []int64{7}).AddInts("b", []int64{3}).Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err = Discover(row, Config{Validator: ValidatorExact, IncludeOFDs: true})
	if err != nil {
		t.Fatal(err)
	}
	// One row: every column is constant, so both {}: []↦a and {}: []↦b hold
	// and all OCs are constancy-trivialized.
	if len(res.OFDs) != 2 || len(res.OCs) != 0 {
		t.Errorf("single-row: OFDs=%v OCs=%v", res.OFDs, res.OCs)
	}
}

func TestEarlyStopOnSaturatedTable(t *testing.T) {
	// All columns identical: level 2 finds every OFD ({a}: []↦b etc.) and
	// trivializes every OC; level 3 must have no candidates → early stop.
	vals := []int64{1, 2, 3, 1, 2, 3, 1, 2}
	tbl, err := dataset.NewBuilder().
		AddInts("a", vals).AddInts("b", vals).AddInts("c", vals).AddInts("d", vals).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Discover(tbl, Config{Validator: ValidatorExact, IncludeOFDs: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.EarlyStopped {
		t.Errorf("expected early stop; levels processed = %d", res.Stats.LevelsProcessed)
	}
	if res.Stats.LevelsProcessed > 3 {
		t.Errorf("levels processed = %d, want <= 3", res.Stats.LevelsProcessed)
	}
}

func TestStatsAccounting(t *testing.T) {
	tbl := paperTable1(t)
	res, err := Discover(tbl, Config{Threshold: 0.1, Validator: ValidatorOptimal, IncludeOFDs: true})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Rows != 9 || st.Attrs != 7 {
		t.Errorf("rows/attrs = %d/%d", st.Rows, st.Attrs)
	}
	if st.OCsFound() != len(res.OCs) {
		t.Errorf("stats OCs %d != result %d", st.OCsFound(), len(res.OCs))
	}
	if st.OFDsFound() != len(res.OFDs) {
		t.Errorf("stats OFDs %d != result %d", st.OFDsFound(), len(res.OFDs))
	}
	if st.OCCandidates == 0 || st.OFDCandidates == 0 {
		t.Error("candidate counts should be nonzero")
	}
	if st.TotalTime <= 0 {
		t.Error("TotalTime not measured")
	}
	if st.ValidationShare() < 0 || st.ValidationShare() > 1 {
		t.Errorf("ValidationShare = %g", st.ValidationShare())
	}
	if st.AvgOCLevel() < 2 && st.OCsFound() > 0 {
		t.Errorf("AvgOCLevel = %g", st.AvgOCLevel())
	}
}

func TestSortByScore(t *testing.T) {
	tbl := paperTable1(t)
	res, err := Discover(tbl, Config{Threshold: 0.2, Validator: ValidatorOptimal, IncludeOFDs: true})
	if err != nil {
		t.Fatal(err)
	}
	res.SortByScore()
	for i := 1; i < len(res.OCs); i++ {
		if res.OCs[i].Score > res.OCs[i-1].Score {
			t.Fatalf("OCs not sorted by score at %d", i)
		}
	}
	for i := 1; i < len(res.OFDs); i++ {
		if res.OFDs[i].Score > res.OFDs[i-1].Score {
			t.Fatalf("OFDs not sorted by score at %d", i)
		}
	}
}

func TestScoreFormula(t *testing.T) {
	if Score(0, 0) != 1 {
		t.Error("exact dep with empty context should score 1")
	}
	if Score(1, 0) != 0.5 {
		t.Error("Score(1,0) != 0.5")
	}
	if Score(0, 0.5) != 0.5 {
		t.Error("Score(0,0.5) != 0.5")
	}
	if Score(0, 0.1) <= Score(1, 0.1) {
		t.Error("smaller contexts must score higher")
	}
}

func TestValidatorKindString(t *testing.T) {
	if ValidatorExact.String() != "OD" ||
		ValidatorOptimal.String() != "AOD (optimal)" ||
		ValidatorIterative.String() != "AOD (iterative)" {
		t.Error("ValidatorKind strings wrong")
	}
	if ValidatorKind(42).String() != "ValidatorKind(42)" {
		t.Error("unknown kind formatting wrong")
	}
}

func TestFormatWithNames(t *testing.T) {
	tbl := paperTable1(t)
	res, err := Discover(tbl, Config{Threshold: 0.12, Validator: ValidatorOptimal, IncludeOFDs: true})
	if err != nil {
		t.Fatal(err)
	}
	names := tbl.ColumnNames()
	for _, oc := range res.OCs {
		s := oc.Format(names)
		if s == "" {
			t.Error("empty OC format")
		}
	}
	for _, ofd := range res.OFDs {
		if ofd.Format(names) == "" {
			t.Error("empty OFD format")
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
