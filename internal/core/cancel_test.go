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
	res, err := Pipeline{}.Run(ctx, tbl, Config{Threshold: 0.2})
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
		return Pipeline{}.Run(ctx, tbl, Config{Threshold: 0.4, Validator: ValidatorIterative})
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
	got, err := Pipeline{}.Run(context.Background(), tbl, cfg)
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
	got, want := runLevel(t, late, context.Background(), tasks), runLevel(t, plain, context.Background(), tasks)
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

// TestTaskClockStartsAtFirstValidation pins what a task charges as
// validation time: a task whose candidates pruning skips all reads no clock
// and charges nothing, and a task that validates charges its time.
func TestTaskClockStartsAtFirstValidation(t *testing.T) {
	tbl := randomTable(rand.New(rand.NewSource(3)), 300, 5, 4)
	runner, err := Prepare(tbl).NewTaskRunner(Config{Threshold: 0.1, Validator: ValidatorOptimal, IncludeOFDs: true})
	if err != nil {
		t.Fatal(err)
	}
	words := lattice.NewPairSet(tbl.NumCols()).Words()
	res := runLevel(t, runner, context.Background(), []NodeTask{
		// Both OFDs hold below and a is constant in the OC's context.
		{Set: 0b11, Level: 2, ConstValid: 0b11, ParentConst: []uint64{0, 0b01}, OCValid: words},
		{Set: 0b11, Level: 2, ParentConst: make([]uint64, 2), OCValid: words},
	})
	if res[0].Candidates != 0 || res[0].Stats.ValidationTime != 0 {
		t.Errorf("a fully pruned task validated %d candidates and charged %v", res[0].Candidates, res[0].Stats.ValidationTime)
	}
	if res[1].Candidates == 0 || res[1].Stats.ValidationTime <= 0 {
		t.Errorf("a task that validated %d candidates charged %v", res[1].Candidates, res[1].Stats.ValidationTime)
	}
}

// TestCancelBeforeTaskValidatesNothing pins the cancellation poll: once the
// context is done, no engine validates another candidate. Under Serial() and
// Pool(2) the context is canceled at the end of level 1, so level 2 must
// validate nothing and the run must report Canceled; the executor's engines
// (and a TaskRunner's) are then handed a claimed task of 21 unpruned
// candidates under the canceled context, and must return it without
// validating any — a poll only at task claims would let them validate all.
func TestCancelBeforeTaskValidatesNothing(t *testing.T) {
	const cols = 6
	tbl := randomTable(rand.New(rand.NewSource(4)), 300, cols, 4)
	cfg := Config{Threshold: 0.1, Validator: ValidatorOptimal, IncludeOFDs: true}
	// The full set's task hosts 6 OFD and 15 OC candidates, none pruned.
	task := NodeTask{Set: 1<<cols - 1, Level: cols, ParentConst: make([]uint64, cols),
		OCValid: lattice.NewPairSet(cols).Words()}

	for _, exec := range []struct {
		name string
		mk   func() Executor
	}{
		{"serial", Serial},
		{"pool", func() Executor { return Pool(2) }},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		x := exec.mk()
		res, err := Pipeline{Executor: x, Sink: func(s Snapshot) {
			if s.Level == 1 {
				cancel()
			}
		}}.Run(ctx, tbl, cfg)
		if err != nil {
			t.Fatalf("%s: %v", exec.name, err)
		}
		st := res.Stats
		if !st.Canceled {
			t.Errorf("%s: Stats.Canceled not set", exec.name)
		}
		if st.LevelsProcessed != 2 || st.OCCandidates != 0 || st.OFDCandidates != cols || st.NodesProcessed != cols {
			t.Errorf("%s: canceled after level 1 but processed %d levels, %d nodes, %d OFD and %d OC candidates",
				exec.name, st.LevelsProcessed, st.NodesProcessed, st.OFDCandidates, st.OCCandidates)
		}
		for i, e := range x.(*localExecutor).engines {
			var nr NodeResult
			e.execTask(&task, &nr)
			if nr.Candidates != 0 {
				t.Errorf("%s: engine %d validated %d candidates of a task claimed after cancellation", exec.name, i, nr.Candidates)
			}
		}
		cancel()
	}

	r, err := Prepare(tbl).NewTaskRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := runLevel(t, r, context.Background(), []NodeTask{task}); got[0].Candidates != cols+cols*(cols-1)/2 {
		t.Fatalf("live runner validated %d candidates, want %d", got[0].Candidates, cols+cols*(cols-1)/2)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, nr := range runLevel(t, r, ctx, []NodeTask{task, task}) {
		if nr.Candidates != 0 {
			t.Errorf("runner: task %d validated %d candidates under a canceled context", i, nr.Candidates)
		}
	}
	var nr NodeResult
	r.eng.execTask(&task, &nr)
	if nr.Candidates != 0 {
		t.Errorf("runner: engine validated %d candidates of a task claimed after cancellation", nr.Candidates)
	}
}
