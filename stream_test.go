package aod

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

func streamTestDataset(t *testing.T, rows, cols int) *Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	b := NewBuilder()
	for c := 0; c < cols; c++ {
		vals := make([]int64, rows)
		for i := range vals {
			vals[i] = int64(rng.Intn(6))
		}
		b.AddInts(fmt.Sprintf("c%d", c), vals)
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestDiscoverStreamPartials pins the public streaming contract: per-level
// events with growing partial reports, a Final last event, a final partial
// identical to the returned report, and identical results with and without
// the callback.
func TestDiscoverStreamPartials(t *testing.T) {
	ds := streamTestDataset(t, 300, 6)
	opts := Options{Threshold: 0.15, IncludeOFDs: true}

	var progresses []Progress
	var partials []*Report
	streamed := opts
	streamed.OnLevel = func(p Progress, partial *Report) {
		progresses = append(progresses, p)
		partials = append(partials, partial)
	}
	rep, err := DiscoverContext(context.Background(), ds, streamed)
	if err != nil {
		t.Fatal(err)
	}
	if len(progresses) < 2 {
		t.Fatalf("want a multi-level stream, got %d events", len(progresses))
	}
	for i := range progresses {
		if progresses[i].Level != i+1 {
			t.Errorf("event %d at level %d", i, progresses[i].Level)
		}
		if (i == len(progresses)-1) != progresses[i].Final {
			t.Errorf("event %d Final=%v", i, progresses[i].Final)
		}
		if got := len(partials[i].OCs); got != progresses[i].OCsFound {
			t.Errorf("event %d: %d OCs in partial, progress says %d", i, got, progresses[i].OCsFound)
		}
		if i > 0 && len(partials[i].OCs) < len(partials[i-1].OCs) {
			t.Errorf("partial report shrank at event %d", i)
		}
	}
	last := partials[len(partials)-1]
	if len(last.OCs) != len(rep.OCs) || len(last.OFDs) != len(rep.OFDs) {
		t.Errorf("final partial (%d OCs) differs from returned report (%d OCs)",
			len(last.OCs), len(rep.OCs))
	}

	plain, err := Discover(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.OCs) != len(rep.OCs) || len(plain.OFDs) != len(rep.OFDs) {
		t.Errorf("streaming changed the result: %d/%d OCs", len(rep.OCs), len(plain.OCs))
	}
	for i := range plain.OCs {
		if plain.OCs[i].String() != rep.OCs[i].String() {
			t.Errorf("OC %d differs: %v vs %v", i, rep.OCs[i], plain.OCs[i])
		}
	}
}

// TestDiscoverStreamParallel: the worker-pool executor streams the same
// events as the serial one.
func TestDiscoverStreamParallel(t *testing.T) {
	ds := streamTestDataset(t, 300, 6)
	run := func(par int) (events int, rep *Report) {
		var n int
		rep, err := DiscoverContext(context.Background(), ds, Options{Threshold: 0.15, Parallelism: par,
			OnLevel: func(p Progress, partial *Report) { n++ }})
		if err != nil {
			t.Fatal(err)
		}
		return n, rep
	}
	se, sr := run(0)
	pe, pr := run(4)
	if se != pe {
		t.Errorf("serial streamed %d events, parallel %d", se, pe)
	}
	if len(sr.OCs) != len(pr.OCs) {
		t.Errorf("serial found %d OCs, parallel %d", len(sr.OCs), len(pr.OCs))
	}
}

// TestEstimateWork pins the scheduler's cost formula and its MaxLevel
// sensitivity: bounding the lattice bounds the estimate.
func TestEstimateWork(t *testing.T) {
	if got := EstimateWork(1000, 8, 0); got != 1000*8*8 {
		t.Errorf("EstimateWork(1000,8,0) = %d", got)
	}
	if got := EstimateWork(1000, 8, 3); got != 1000*8*3 {
		t.Errorf("EstimateWork(1000,8,3) = %d", got)
	}
	if got := EstimateWork(1000, 8, 99); got != 1000*8*8 {
		t.Errorf("EstimateWork(1000,8,99) = %d (no-op bound must not inflate)", got)
	}
	if EstimateWork(100, 3, 0) >= EstimateWork(100000, 3, 0) {
		t.Error("more rows must estimate more work")
	}
}
