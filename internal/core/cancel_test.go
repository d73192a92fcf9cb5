package core

import (
	"context"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"aod/internal/lattice"
)

// TestDiscoverContextPreCanceled: an already-canceled context aborts before
// any level completes, mirroring the TimeLimit contract (partial result,
// Canceled set, nil error).
func TestDiscoverContextPreCanceled(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tbl := randomTable(rng, 200, 5, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := DiscoverContext(ctx, tbl, Config{Threshold: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Canceled {
		t.Error("Stats.Canceled not set for a pre-canceled context")
	}
	if res.Stats.NodesProcessed != 0 {
		t.Errorf("processed %d nodes under a pre-canceled context, want 0", res.Stats.NodesProcessed)
	}
}

// TestDiscoverContextCancelMidRun cancels while discovery is in flight and
// checks the run stops early with partial results, in both the sequential
// and the parallel engines.
func TestDiscoverContextCancelMidRun(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tbl := randomTable(rng, 1500, 7, 800)
	full, err := Discover(tbl, Config{Threshold: 0.4, Validator: ValidatorIterative})
	if err != nil {
		t.Fatal(err)
	}

	// Cancel at a tenth of the measured full runtime so the test scales
	// with machine speed instead of assuming a fixed duration.
	delay := full.Stats.TotalTime / 10
	if delay <= 0 {
		delay = time.Millisecond
	}
	run := func(name string, f func(ctx context.Context) (*Result, error)) {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(delay)
			cancel()
		}()
		res, err := f(ctx)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Stats.Canceled && res.Stats.NodesProcessed >= full.Stats.NodesProcessed {
			// The run outpaced the cancel goroutine entirely; no signal
			// either way on a machine this fast relative to the scheduler.
			t.Skipf("%s: run finished before the %v cancel fired", name, delay)
		}
		if !res.Stats.Canceled {
			t.Errorf("%s: Stats.Canceled not set", name)
		}
		if res.Stats.NodesProcessed >= full.Stats.NodesProcessed {
			t.Errorf("%s: processed %d nodes, full run processed %d — cancellation did not stop early",
				name, res.Stats.NodesProcessed, full.Stats.NodesProcessed)
		}
	}
	run("sequential", func(ctx context.Context) (*Result, error) {
		return DiscoverContext(ctx, tbl, Config{Threshold: 0.4, Validator: ValidatorIterative})
	})
	run("parallel", func(ctx context.Context) (*Result, error) {
		return Pipeline{Executor: Pool(4)}.Run(ctx, tbl, Config{Threshold: 0.4, Validator: ValidatorIterative})
	})
}

// TestDiscoverContextBackgroundMatchesDiscover: a never-canceled context
// changes nothing about the result.
func TestDiscoverContextBackgroundMatchesDiscover(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tbl := randomTable(rng, 120, 5, 4)
	cfg := Config{Threshold: 0.15, IncludeOFDs: true}
	want, err := Discover(tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DiscoverContext(context.Background(), tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Canceled {
		t.Error("background context marked canceled")
	}
	if len(got.OCs) != len(want.OCs) || len(got.OFDs) != len(want.OFDs) {
		t.Errorf("results differ: %d/%d OCs, %d/%d OFDs",
			len(got.OCs), len(want.OCs), len(got.OFDs), len(want.OFDs))
	}
}

// TestTaskRunnerIgnoresTimeLimit pins TimeLimit as coordinator policy: a
// runner handed a config whose limit has long passed still runs every task
// of a level, with the results of a runner built without one.
func TestTaskRunnerIgnoresTimeLimit(t *testing.T) {
	tbl := randomTable(rand.New(rand.NewSource(3)), 300, 5, 4)
	prep := Prepare(tbl)
	cfg := Config{Threshold: 0.1, Validator: ValidatorOptimal, IncludeOFDs: true}
	limited := cfg
	limited.TimeLimit = time.Nanosecond
	late, err := prep.NewTaskRunner(limited)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := prep.NewTaskRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Millisecond)
	var tasks []NodeTask
	for set := uint64(0); set < 1<<tbl.NumCols(); set++ {
		if bits.OnesCount64(set) == 2 {
			tasks = append(tasks, NodeTask{Set: set, Level: 2, ParentConst: make([]uint64, 2),
				OCValid: lattice.NewPairSet(tbl.NumCols()).Words()})
		}
	}
	got, want := late.RunLevel(context.Background(), tasks), plain.RunLevel(context.Background(), tasks)
	for i := range got {
		if got[i].Candidates == 0 {
			t.Fatalf("task %d (set %b) ran no candidates after the time limit passed", i, tasks[i].Set)
		}
		got[i].Stats, want[i].Stats = TaskStats{}, TaskStats{}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("results under a passed time limit differ:\nlimited: %+v\nplain:   %+v", got, want)
	}
}
