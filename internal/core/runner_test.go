package core

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"aod/internal/lattice"
)

// runLevel is TaskRunner.RunLevel for tasks the test built well-formed.
func runLevel(t *testing.T, r *TaskRunner, ctx context.Context, tasks []NodeTask) []NodeResult {
	t.Helper()
	res, err := r.RunLevel(ctx, tasks)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTaskRunnerRefusesMalformedTasks hands a runner over a 4-column table
// slices holding one task that does not fit it, after a well-formed one.
// Each slice must be refused whole with an error naming the fault, not
// panic, and the runner must then run a well-formed slice as a fresh runner
// does.
func TestTaskRunnerRefusesMalformedTasks(t *testing.T) {
	tbl := randomTable(rand.New(rand.NewSource(5)), 200, 4, 4)
	prep := Prepare(tbl)
	cfg := Config{Threshold: 0.1, IncludeOFDs: true}
	words := lattice.NewPairSet(4).Words()
	good := NodeTask{Set: 0b0011, Level: 2, ParentConst: make([]uint64, 2), OCValid: words}
	for _, c := range []struct {
		name, want string
		task       NodeTask
	}{
		{"column outside the table", "outside", NodeTask{Set: 1 << 9, Level: 1, ParentConst: make([]uint64, 1)}},
		{"level not the set's size", "level 3", NodeTask{Set: 0b0011, Level: 3, ParentConst: make([]uint64, 3), OCValid: words}},
		{"no ParentConst words", "ParentConst", NodeTask{Set: 0b0011, Level: 2, OCValid: words}},
		{"too few ParentFDContexts words", "ParentFDContexts", NodeTask{Set: 0b0111, Level: 3,
			ParentConst: make([]uint64, 3), ParentFDContexts: []uint64{1}, OCValid: words}},
	} {
		r, err := prep.NewTaskRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.RunLevel(context.Background(), []NodeTask{good, c.task})
		if err == nil || !strings.Contains(err.Error(), "task 1") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: RunLevel returned %d results and error %v, want an error about task 1 naming %q",
				c.name, len(res), err, c.want)
		}
		fresh, err := prep.NewTaskRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, want := runLevel(t, r, context.Background(), []NodeTask{good}), runLevel(t, fresh, context.Background(), []NodeTask{good})
		got[0].Stats, want[0].Stats = TaskStats{}, TaskStats{}
		if got[0].Candidates == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: after the refusal the runner returned %+v, a fresh runner %+v", c.name, got[0], want[0])
		}
	}
}
