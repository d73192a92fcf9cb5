package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"aod/internal/gen"
	"aod/internal/lattice"
)

type biOCKey struct {
	ctx  lattice.AttrSet
	a, b int
	desc bool
}

func biOCSet(r *Result) map[biOCKey]float64 {
	m := make(map[biOCKey]float64, len(r.OCs))
	for _, d := range r.OCs {
		m[biOCKey{d.Context, d.A, d.B, d.Descending}] = d.Error
	}
	return m
}

// Bidirectional discovery must match the brute-force reference exactly.
func TestBidirectionalDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(500))
	thresholds := []float64{0, 0.15, 0.35}
	iters := 60
	if testing.Short() {
		iters = 15
	}
	for iter := 0; iter < iters; iter++ {
		rows := 2 + rng.Intn(18)
		attrs := 2 + rng.Intn(3)
		tbl := randomTable(rng, rows, attrs, 2+rng.Intn(4))
		cfg := Config{
			Threshold:     thresholds[iter%len(thresholds)],
			Validator:     ValidatorOptimal,
			IncludeOFDs:   true,
			Bidirectional: true,
		}
		got, err := Discover(tbl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ReferenceDiscover(tbl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		g, w := biOCSet(got), biOCSet(want)
		if len(g) != len(w) {
			t.Fatalf("iter %d: %d OCs vs reference %d\ngot %v\nwant %v",
				iter, len(g), len(w), got.OCs, want.OCs)
		}
		for k, e := range w {
			ge, ok := g[k]
			if !ok {
				t.Fatalf("iter %d: missing OC %+v", iter, k)
			}
			if math.Abs(ge-e) > 1e-9 {
				t.Fatalf("iter %d: OC %+v error %g, want %g", iter, k, ge, e)
			}
		}
	}
}

// The planted descending pair age / birthYear (birthYear = 100 − age) is
// invisible to unidirectional discovery but found exactly by bidirectional
// discovery at the lowest level.
func TestBidirectionalFindsDescendingPlant(t *testing.T) {
	tbl := gen.NCVoter(gen.NCVoterConfig{Rows: 2000, Attrs: 10, Seed: 3})
	age := tbl.ColumnIndex("age")
	by := tbl.ColumnIndex("birthYear")
	if age < 0 || by < 0 {
		t.Fatal("generator missing age/birthYear")
	}
	uni, err := Discover(tbl, Config{Validator: ValidatorExact})
	if err != nil {
		t.Fatal(err)
	}
	for _, oc := range uni.OCs {
		if oc.Context.IsEmpty() && oc.A == min(age, by) && oc.B == max(age, by) && !oc.Descending {
			t.Fatalf("age ∼ birthYear should NOT hold ascending: %v", oc)
		}
	}
	bi, err := Discover(tbl, Config{Validator: ValidatorExact, Bidirectional: true})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, oc := range bi.OCs {
		if oc.Context.IsEmpty() && oc.A == min(age, by) && oc.B == max(age, by) && oc.Descending {
			found = true
			if oc.Error != 0 {
				t.Errorf("age ∼ birthYear↓ should hold exactly, e=%g", oc.Error)
			}
		}
	}
	if !found {
		t.Errorf("age ∼ birthYear↓ not discovered bidirectionally; OCs: %v", bi.OCs)
	}
}

// Bidirectional results must be a superset of unidirectional ones (the
// ascending candidates are unaffected by adding descending ones).
func TestBidirectionalSupersetOfUnidirectional(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	for iter := 0; iter < 20; iter++ {
		tbl := randomTable(rng, 5+rng.Intn(25), 4, 3)
		cfg := Config{Threshold: 0.2, Validator: ValidatorOptimal}
		uni, err := Discover(tbl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Bidirectional = true
		bi, err := Discover(tbl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		biSet := biOCSet(bi)
		for k := range biOCSet(uni) {
			if _, ok := biSet[k]; !ok {
				t.Fatalf("iter %d: ascending OC %+v lost under bidirectional discovery", iter, k)
			}
		}
	}
}

// Parallel bidirectional discovery matches sequential.
func TestBidirectionalParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(502))
	tbl := randomTable(rng, 60, 5, 3)
	cfg := Config{Threshold: 0.2, Validator: ValidatorOptimal, Bidirectional: true}
	seq, err := Discover(tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Pipeline{Executor: Pool(4)}.Run(context.Background(), tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(biOCSet(seq)) != len(biOCSet(par)) {
		t.Fatalf("parallel %d OCs vs sequential %d", len(par.OCs), len(seq.OCs))
	}
	for k := range biOCSet(seq) {
		if _, ok := biOCSet(par)[k]; !ok {
			t.Fatalf("parallel missing %+v", k)
		}
	}
}
