package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"aod/internal/dataset"
	"aod/internal/gen"
	"aod/internal/lattice"
)

// zeroTimes clears the wall-clock fields, which legitimately differ between
// runs; everything else in Stats must be schedule-independent.
func zeroTimes(s *Stats) {
	s.ValidationTime = 0
	s.PartitionTime = 0
	s.TotalTime = 0
}

// TestSerialParallelStatsIdentical pins the post-unification invariant: the
// serial and pool executors run the same planner and node-processing code, so
// every non-timing stat — candidate counts, skip counters, per-level found
// counts — is identical, not merely the result sets. (The pre-pipeline engine
// double-booked these in two level loops and silently dropped a counter on
// the parallel path.) The bidirectional exact row runs reversed B columns
// through the sorted-scan route on the wide contexts.
func TestSerialParallelStatsIdentical(t *testing.T) {
	tbl := gen.Flight(gen.FlightConfig{Rows: 1500, Attrs: 8, Seed: 17})
	cfgs := []Config{
		{Threshold: 0.10, Validator: ValidatorOptimal, IncludeOFDs: true},
		{Threshold: 0.10, Validator: ValidatorOptimal, IncludeOFDs: true, Bidirectional: true},
		{Validator: ValidatorExact, IncludeOFDs: true},
		{Validator: ValidatorExact, IncludeOFDs: true, Bidirectional: true},
	}
	for _, cfg := range cfgs {
		seq, err := Discover(tbl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		par, err := Pipeline{Executor: Pool(4)}.Run(context.Background(), tbl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		zeroTimes(&seq.Stats)
		zeroTimes(&par.Stats)
		if !reflect.DeepEqual(seq.Stats, par.Stats) {
			t.Errorf("cfg %+v: stats diverge:\nserial:   %+v\nparallel: %+v", cfg, seq.Stats, par.Stats)
		}
		if !reflect.DeepEqual(seq.OCs, par.OCs) || !reflect.DeepEqual(seq.OFDs, par.OFDs) {
			t.Errorf("cfg %+v: results diverge (%d/%d OCs, %d/%d OFDs)",
				cfg, len(seq.OCs), len(par.OCs), len(seq.OFDs), len(par.OFDs))
		}
	}
}

// TestSinkDoesNotChangeResult pins that attaching a progress sink is
// observation only: reports and stats are identical with and without one, on
// both executors.
func TestSinkDoesNotChangeResult(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	tbl := randomTable(rng, 400, 6, 4)
	cfg := Config{Threshold: 0.1, Validator: ValidatorOptimal, IncludeOFDs: true}
	for _, exec := range []struct {
		name string
		mk   func() Executor
	}{
		{"serial", Serial},
		{"pool", func() Executor { return Pool(4) }},
	} {
		plain, err := Pipeline{Executor: exec.mk()}.Run(context.Background(), tbl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		snaps := 0
		sunk, err := Pipeline{Executor: exec.mk(), Sink: func(Snapshot) { snaps++ }}.
			Run(context.Background(), tbl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if snaps == 0 {
			t.Fatalf("%s: sink never invoked", exec.name)
		}
		zeroTimes(&plain.Stats)
		zeroTimes(&sunk.Stats)
		if !reflect.DeepEqual(plain.Stats, sunk.Stats) {
			t.Errorf("%s: sink changed stats", exec.name)
		}
		if !reflect.DeepEqual(plain.OCs, sunk.OCs) || !reflect.DeepEqual(plain.OFDs, sunk.OFDs) {
			t.Errorf("%s: sink changed results", exec.name)
		}
	}
}

// TestSnapshotSemantics pins the per-level snapshot contract: one snapshot
// per processed level with increasing level numbers, cumulative monotonically
// growing dependency sets, exactly one Final snapshot (the last), and a final
// snapshot equal to the returned result.
func TestSnapshotSemantics(t *testing.T) {
	tbl := gen.Flight(gen.FlightConfig{Rows: 800, Attrs: 7, Seed: 5})
	cfg := Config{Threshold: 0.10, Validator: ValidatorOptimal, IncludeOFDs: true}
	for _, exec := range []struct {
		name string
		mk   func() Executor
	}{
		{"serial", Serial},
		{"pool", func() Executor { return Pool(3) }},
	} {
		var snaps []Snapshot
		res, err := Pipeline{Executor: exec.mk(), Sink: func(s Snapshot) { snaps = append(snaps, s) }}.
			Run(context.Background(), tbl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(snaps) != res.Stats.LevelsProcessed {
			t.Fatalf("%s: %d snapshots for %d levels", exec.name, len(snaps), res.Stats.LevelsProcessed)
		}
		if len(snaps) < 3 {
			t.Fatalf("%s: want a multi-level run, got %d levels", exec.name, len(snaps))
		}
		for i, s := range snaps {
			if s.Level != i+1 {
				t.Errorf("%s: snapshot %d has level %d", exec.name, i, s.Level)
			}
			if s.MaxLevel != tbl.NumCols() {
				t.Errorf("%s: snapshot %d MaxLevel = %d", exec.name, i, s.MaxLevel)
			}
			if (i == len(snaps)-1) != s.Final {
				t.Errorf("%s: snapshot %d Final = %v", exec.name, i, s.Final)
			}
			if i > 0 {
				prev := snaps[i-1]
				if len(s.OCs) < len(prev.OCs) || len(s.OFDs) < len(prev.OFDs) {
					t.Errorf("%s: snapshot %d shrank", exec.name, i)
				}
				if s.NodesRemaining >= prev.NodesRemaining {
					t.Errorf("%s: NodesRemaining did not shrink at %d", exec.name, i)
				}
				if s.EstimatedRemaining >= prev.EstimatedRemaining {
					t.Errorf("%s: EstimatedRemaining did not shrink at %d", exec.name, i)
				}
			}
		}
		last := snaps[len(snaps)-1]
		if last.EstimatedRemaining != 0 {
			t.Errorf("%s: final snapshot estimates %d remaining", exec.name, last.EstimatedRemaining)
		}
		if !reflect.DeepEqual(last.OCs, res.OCs) || !reflect.DeepEqual(last.OFDs, res.OFDs) {
			t.Errorf("%s: final snapshot differs from result", exec.name)
		}
		// Snapshots are deep copies: mutating one must not corrupt the result.
		if len(snaps[0].Stats.OCsFoundPerLevel) > 0 {
			snaps[0].Stats.OCsFoundPerLevel[0] = 999
			if res.Stats.OCsFoundPerLevel[0] == 999 {
				t.Errorf("%s: snapshot aliases result stats", exec.name)
			}
		}
	}
}

// TestSnapshotOnMaxLevelBound: a level-bounded run's last snapshot is the
// bound level and carries zero estimated remaining work.
func TestSnapshotOnMaxLevelBound(t *testing.T) {
	tbl := gen.Flight(gen.FlightConfig{Rows: 500, Attrs: 8, Seed: 3})
	var snaps []Snapshot
	_, err := Pipeline{Sink: func(s Snapshot) { snaps = append(snaps, s) }}.
		Run(context.Background(), tbl, Config{Threshold: 0.10, Validator: ValidatorOptimal, MaxLevel: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no snapshots")
	}
	last := snaps[len(snaps)-1]
	if !last.Final || last.Level > 3 || last.MaxLevel != 3 {
		t.Fatalf("bad final snapshot: %+v", last)
	}
}

// TestSnapshotsWhenDeletionEmptiesALevel: on a table where c = f(x) and
// four independent columns hold few rows, every level-6 set has a dead
// subset, so the run stops after level 5 although that level still
// validated candidates. It is an early stop, and its last snapshot is the
// one Final snapshot, one per processed level.
func TestSnapshotsWhenDeletionEmptiesALevel(t *testing.T) {
	f := [6]int64{2, 0, 1, 1, 0, 2}
	rng := rand.New(rand.NewSource(1))
	const rows = 20
	x, c := make([]int64, rows), make([]int64, rows)
	for i := range x {
		x[i] = int64(rng.Intn(6))
		c[i] = f[x[i]]
	}
	b := dataset.NewBuilder().AddInts("x", x).AddInts("c", c)
	for j := 0; j < 4; j++ {
		y := make([]int64, rows)
		for i := range y {
			y[i] = int64(rng.Intn(4))
		}
		b.AddInts(fmt.Sprintf("y%d", j), y)
	}
	tbl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Validator: ValidatorExact, IncludeOFDs: true}
	for _, exec := range []struct {
		name string
		mk   func() Executor
	}{
		{"serial", Serial},
		{"pool", func() Executor { return Pool(2) }},
	} {
		var snaps []Snapshot
		res, err := Pipeline{Executor: exec.mk(), Sink: func(s Snapshot) { snaps = append(snaps, s) }}.
			Run(context.Background(), tbl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		if st.LevelsProcessed != 5 || !st.EarlyStopped {
			t.Fatalf("%s: ran %d levels (early stop %v), want 5 and an early stop", exec.name, st.LevelsProcessed, st.EarlyStopped)
		}
		if len(snaps) != st.LevelsProcessed {
			t.Fatalf("%s: %d snapshots for %d levels", exec.name, len(snaps), st.LevelsProcessed)
		}
		final := 0
		for _, s := range snaps {
			if s.Final {
				final++
			}
		}
		last := snaps[len(snaps)-1]
		if final != 1 || !last.Final {
			t.Errorf("%s: %d Final snapshots, last one Final: %v", exec.name, final, last.Final)
		}
		if last.Candidates == 0 {
			t.Errorf("%s: level %d validated nothing: the stop is the candidate-free one", exec.name, last.Level)
		}
	}
}

// TestRemainingNodes pins the binomial sum against a direct lattice count.
func TestRemainingNodes(t *testing.T) {
	if got := lattice.RemainingNodes(5, 2, 5); got != 10+5+1 {
		t.Errorf("RemainingNodes(5,2,5) = %d, want 16", got)
	}
	if got := lattice.RemainingNodes(5, 5, 5); got != 0 {
		t.Errorf("RemainingNodes(5,5,5) = %d, want 0", got)
	}
	if got := lattice.RemainingNodes(8, 0, 4); got != 8+28+56+70 {
		t.Errorf("RemainingNodes(8,0,4) = %d, want 162", got)
	}
	// The widest supported schema: C(64, 32) must compute exactly (the
	// undivided multiplicative intermediate exceeds int64, so this pins the
	// 128-bit mul/div step).
	if got := lattice.RemainingNodes(64, 31, 32); got != 1832624140942590534 {
		t.Errorf("RemainingNodes(64,31,32) = %d, want C(64,32) = 1832624140942590534", got)
	}
	// The full 64-attribute lattice has 2^64-1 non-empty nodes — beyond
	// int64; the sum must saturate, not wrap negative.
	if got := lattice.RemainingNodes(64, 0, 64); got != 1<<63-1 {
		t.Errorf("RemainingNodes(64,0,64) = %d, want MaxInt64 saturation", got)
	}
}

// TestPipelineCancelDuringRun: cancellation mid-run returns a partial result
// flagged Canceled on both executors, with the sink's last snapshot Final.
func TestPipelineCancelDuringRun(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	tbl := randomTable(rng, 2000, 8, 3)
	for _, exec := range []struct {
		name string
		mk   func() Executor
	}{
		{"serial", Serial},
		{"pool", func() Executor { return Pool(4) }},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		var snaps []Snapshot
		sink := func(s Snapshot) {
			snaps = append(snaps, s)
			if len(snaps) == 2 {
				cancel() // cancel at the second level boundary
			}
		}
		res, err := Pipeline{Executor: exec.mk(), Sink: sink}.
			Run(ctx, tbl, Config{Threshold: 0.3, Validator: ValidatorIterative})
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stats.Canceled {
			t.Errorf("%s: Canceled not set", exec.name)
		}
		if len(snaps) == 0 || !snaps[len(snaps)-1].Final {
			t.Errorf("%s: no Final snapshot after cancellation", exec.name)
		}
	}
}
