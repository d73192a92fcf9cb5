package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"aod/internal/gen"
	"aod/internal/partition"
	"aod/internal/validate"
)

// The count path's verdict at ε 0.10 must match the full error, and a
// rejection's lower bound (from the swap matching or a stopped count) must
// pass the removal budget without exceeding the full count.
func TestSampledEstimateTracksTrueError(t *testing.T) {
	v := validate.New()
	const eps = 0.10
	for _, frac := range []float64{0, 0.05, 0.10, 0.20} {
		tbl := gen.CorrelatedPair(20_000, frac, 5)
		ctx := partition.Universe(tbl.NumRows())
		full := v.OptimalAOC(ctx, tbl.Column(0), tbl.Column(1), validate.Options{Threshold: 1})
		r := v.OptimalAOC(ctx, tbl.Column(0), tbl.Column(1), validate.Options{Threshold: eps})
		if want := full.Error <= eps; r.Valid != want {
			t.Errorf("frac=%.2f: valid %v at ε %.2f, full error %.4f", frac, r.Valid, eps, full.Error)
		}
		if r.Valid {
			if r.Removals != full.Removals {
				t.Errorf("frac=%.2f: accepted with %d removals, full count %d", frac, r.Removals, full.Removals)
			}
			continue
		}
		budget := int(math.Floor(eps*float64(tbl.NumRows()) + 1e-9))
		if r.Removals <= budget || r.Removals > full.Removals {
			t.Errorf("frac=%.2f: rejected with %d removals, want in (%d, %d]", frac, r.Removals, budget, full.Removals)
		}
	}
}

// ComputeFullError bypasses both the swap-matching bound and the budget stop:
// at a threshold the candidate fails by far, it returns the collecting
// path's count, not a lower bound.
func TestSampledEstimateStrideOne(t *testing.T) {
	v := validate.New()
	tbl := gen.CorrelatedPair(5000, 0.1, 6)
	ctx := partition.Universe(tbl.NumRows())
	collected := v.OptimalAOC(ctx, tbl.Column(0), tbl.Column(1), validate.Options{Threshold: 1, CollectRemovals: true})
	if collected.Removals != len(collected.RemovalRows) {
		t.Fatalf("collecting path: %d removals, %d rows", collected.Removals, len(collected.RemovalRows))
	}
	full := v.OptimalAOC(ctx, tbl.Column(0), tbl.Column(1), validate.Options{Threshold: 0.01, ComputeFullError: true})
	if full.Aborted || full.Valid {
		t.Fatalf("ComputeFullError result: aborted %v valid %v, want a completed rejection", full.Aborted, full.Valid)
	}
	if full.Removals != collected.Removals || math.Abs(full.Error-collected.Error) > 1e-12 {
		t.Errorf("ComputeFullError count %d (e=%.6f), collecting path %d (e=%.6f)",
			full.Removals, full.Error, collected.Removals, collected.Error)
	}
	if bound := v.OptimalAOC(ctx, tbl.Column(0), tbl.Column(1), validate.Options{Threshold: 0.01}); !bound.Aborted || bound.Removals > full.Removals {
		t.Errorf("budgeted result: aborted %v with %d removals, want an aborted lower bound of %d", bound.Aborted, bound.Removals, full.Removals)
	}
}

// Default discovery finds the planted origin ∼ originIATA dependency on the
// table the hybrid-sampling mode was once measured on.
func TestHybridSamplingKeepsPlantedDependencies(t *testing.T) {
	tbl := gen.Flight(gen.FlightConfig{Rows: 8000, Attrs: 8, Seed: 7})
	res, err := Discover(tbl, Config{Threshold: 0.10, Validator: ValidatorOptimal})
	if err != nil {
		t.Fatal(err)
	}
	origin, iata := tbl.ColumnIndex("origin"), tbl.ColumnIndex("originIATA")
	found := false
	for _, oc := range res.OCs {
		if oc.Context.IsEmpty() && oc.A == min(origin, iata) && oc.B == max(origin, iata) {
			found = true
		}
	}
	if !found {
		t.Error("discovery lost the planted origin ∼ originIATA dependency")
	}
}

// The exact validator treats ε as 0: a threshold changes nothing.
func TestHybridSamplingIgnoredForExact(t *testing.T) {
	tbl := paperTable1(t)
	plain, err := Discover(tbl, Config{Validator: ValidatorExact, IncludeOFDs: true})
	if err != nil {
		t.Fatal(err)
	}
	withEps, err := Discover(tbl, Config{Validator: ValidatorExact, IncludeOFDs: true, Threshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	zeroTimes(&plain.Stats)
	zeroTimes(&withEps.Stats)
	if !reflect.DeepEqual(plain, withEps) {
		t.Errorf("threshold changed exact discovery:\nε=0:   %+v\nε=0.3: %+v", plain, withEps)
	}
}

func TestDisablePruningSameResultsMoreWork(t *testing.T) {
	rng := rand.New(rand.NewSource(300))
	for iter := 0; iter < 15; iter++ {
		tbl := randomTable(rng, 10+rng.Intn(30), 4, 3)
		base := Config{Threshold: 0.2, Validator: ValidatorOptimal, IncludeOFDs: true}
		pruned, err := Discover(tbl, base)
		if err != nil {
			t.Fatal(err)
		}
		abl := base
		abl.DisablePruning = true
		unpruned, err := Discover(tbl, abl)
		if err != nil {
			t.Fatal(err)
		}
		if len(ocSet(pruned)) != len(ocSet(unpruned)) || len(ofdSet(pruned)) != len(ofdSet(unpruned)) {
			t.Fatalf("iter %d: ablation changed results: %d/%d vs %d/%d OCs/OFDs",
				iter, len(unpruned.OCs), len(unpruned.OFDs), len(pruned.OCs), len(pruned.OFDs))
		}
		if unpruned.Stats.OCCandidates < pruned.Stats.OCCandidates ||
			unpruned.Stats.OFDCandidates < pruned.Stats.OFDCandidates {
			t.Fatalf("iter %d: ablation should validate at least as many candidates", iter)
		}
	}
}
