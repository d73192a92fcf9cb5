package aod

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestSuggestRepairsPaperExample(t *testing.T) {
	ds := Table1()
	// {pos}: exp ∼ sal flags t8 (dev with exp=-1, sal=90); any salary at or
	// below the cheapest kept dev salary (30) restores order.
	repairs, err := SuggestRepairs(ds, []string{"pos"}, "exp", "sal")
	if err != nil {
		t.Fatal(err)
	}
	if len(repairs) != 1 {
		t.Fatalf("repairs = %+v, want 1", repairs)
	}
	r := repairs[0]
	if r.Row != 7 || r.Column != "sal" || r.Current != "90" {
		t.Errorf("repair = %+v", r)
	}
	if r.Lo != "" {
		t.Errorf("Lo = %q, want unbounded", r.Lo)
	}
	if r.Hi != "30" {
		t.Errorf("Hi = %q, want 30", r.Hi)
	}
}

func TestSuggestRepairsErrors(t *testing.T) {
	ds := Table1()
	if _, err := SuggestRepairs(ds, nil, "nope", "sal"); err == nil {
		t.Error("want error for unknown column")
	}
}

func TestSuspects(t *testing.T) {
	ds := Table1()
	rep, err := Discover(ds, Options{
		Threshold:          0.12,
		CollectRemovalSets: true,
		IncludeOFDs:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	all := Suspects(rep, 1)
	if len(all) == 0 {
		t.Fatal("no suspects at minHits=1 despite approximate dependencies")
	}
	for i := 1; i < len(all); i++ {
		if all[i].Hits > all[i-1].Hits {
			t.Fatal("suspects not sorted by hits")
		}
	}
	some := Suspects(rep, 2)
	for _, s := range some {
		if s.Hits < 2 {
			t.Errorf("suspect %v below minHits", s)
		}
	}
	if len(Suspects(rep, 1<<30)) != 0 {
		t.Error("absurd minHits should yield no suspects")
	}
}

func TestDiscoverParallelOption(t *testing.T) {
	ds := Flight(2000, 8, 5)
	seq, err := Discover(ds, Options{Threshold: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Discover(ds, Options{Threshold: 0.10, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.OCs) != len(par.OCs) {
		t.Errorf("parallel OCs = %d, sequential = %d", len(par.OCs), len(seq.OCs))
	}
	// Reports are score-sorted; the sets must match.
	seen := make(map[string]bool)
	for _, oc := range seq.OCs {
		seen[oc.String()] = true
	}
	for _, oc := range par.OCs {
		if !seen[oc.String()] {
			t.Errorf("parallel-only OC %v", oc)
		}
	}
}

// The hybrid-sampling options are retired: a strict decode of a body that
// still carries them fails instead of silently running without sampling.
func TestDiscoverSamplingOption(t *testing.T) {
	for _, body := range []string{`{"sampleStride":8}`, `{"threshold":0.1,"sampleSlack":0.05}`} {
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		var o Options
		if err := dec.Decode(&o); err == nil {
			t.Errorf("%s decoded into Options as %+v", body, o)
		}
	}
}
