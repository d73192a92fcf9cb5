package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"aod/internal/gen"
)

func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(200))
	for iter := 0; iter < 25; iter++ {
		rows := 10 + rng.Intn(60)
		attrs := 3 + rng.Intn(4)
		tbl := randomTable(rng, rows, attrs, 2+rng.Intn(4))
		for _, vk := range []ValidatorKind{ValidatorExact, ValidatorOptimal, ValidatorIterative} {
			cfg := Config{Threshold: 0.15, Validator: vk, IncludeOFDs: true}
			seq, err := Discover(tbl, cfg)
			if err != nil {
				t.Fatal(err)
			}
			par, err := Pipeline{Executor: Pool(4)}.Run(context.Background(), tbl, cfg)
			if err != nil {
				t.Fatal(err)
			}
			seq.SortCanonical()
			par.SortCanonical()
			if len(seq.OCs) != len(par.OCs) || len(seq.OFDs) != len(par.OFDs) {
				t.Fatalf("iter %d %v: parallel %d/%d vs sequential %d/%d OCs/OFDs",
					iter, vk, len(par.OCs), len(par.OFDs), len(seq.OCs), len(seq.OFDs))
			}
			for i := range seq.OCs {
				a, b := seq.OCs[i], par.OCs[i]
				if a.Context != b.Context || a.A != b.A || a.B != b.B || a.Error != b.Error {
					t.Fatalf("iter %d %v: OC %d differs: %v vs %v", iter, vk, i, a, b)
				}
			}
			for i := range seq.OFDs {
				a, b := seq.OFDs[i], par.OFDs[i]
				if a.Context != b.Context || a.A != b.A || a.Error != b.Error {
					t.Fatalf("iter %d %v: OFD %d differs: %v vs %v", iter, vk, i, a, b)
				}
			}
			if seq.Stats.OCCandidates != par.Stats.OCCandidates ||
				seq.Stats.OFDCandidates != par.Stats.OFDCandidates {
				t.Fatalf("iter %d %v: candidate counts differ: %d/%d vs %d/%d",
					iter, vk, par.Stats.OCCandidates, par.Stats.OFDCandidates,
					seq.Stats.OCCandidates, seq.Stats.OFDCandidates)
			}
		}
	}
}

// TestParallelSingleWorkerDelegates pins that Pool(1) is Serial(): one engine
// runs node by node, sorted-scan route included, with identical results and
// non-timing stats.
func TestParallelSingleWorkerDelegates(t *testing.T) {
	tbl := paperTable1(t)
	// Every executor opens the sorted-scan route's orders for the exact
	// validator; the single engine shows in the engine count.
	scan := Config{Validator: ValidatorExact}
	for _, tc := range []struct {
		name    string
		exec    Executor
		engines int
	}{
		{"Serial()", Serial(), 1},
		{"Pool(1)", Pool(1), 1},
		{"Pool(2)", Pool(2), 2},
	} {
		tr := &traversal{tbl: tbl, cfg: scan, numAttrs: tbl.NumCols(), res: &Result{}}
		if !tc.exec.prepare(tr) {
			t.Fatalf("%s: prepare aborted", tc.name)
		}
		if tr.orders == nil {
			t.Errorf("%s: sorted-scan orders not built", tc.name)
		}
		if got := len(tc.exec.(*localExecutor).engines); got != tc.engines {
			t.Errorf("%s: %d engines, want %d", tc.name, got, tc.engines)
		}
	}
	for _, cfg := range []Config{
		{Threshold: 0.12, Validator: ValidatorOptimal, IncludeOFDs: true},
		{Validator: ValidatorExact, IncludeOFDs: true},
	} {
		r, err := Pipeline{Executor: Pool(1)}.Run(context.Background(), tbl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Pipeline{Executor: Serial()}.Run(context.Background(), tbl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		zeroTimes(&r.Stats)
		zeroTimes(&s.Stats)
		if !reflect.DeepEqual(r, s) {
			t.Errorf("cfg %+v: Pool(1) differs from Serial():\npool:   %+v\nserial: %+v", cfg, r, s)
		}
	}
}

func TestParallelDefaultWorkers(t *testing.T) {
	tbl := paperTable1(t)
	r, err := Pipeline{Executor: Pool(0)}.Run(context.Background(), tbl, Config{Threshold: 0.12, Validator: ValidatorOptimal})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.OCs) == 0 {
		t.Error("no OCs found with default workers")
	}
}

func TestParallelConfigError(t *testing.T) {
	tbl := paperTable1(t)
	if _, err := (Pipeline{Executor: Pool(4)}).Run(context.Background(), tbl, Config{Threshold: -1}); err == nil {
		t.Error("want config error")
	}
}

func TestParallelOnGeneratedWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	tbl := randomTable(rng, 500, 6, 4)
	cfg := Config{Threshold: 0.1, Validator: ValidatorOptimal, IncludeOFDs: true, CollectRemovalSets: true}
	seq, err := Discover(tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Pipeline{Executor: Pool(8)}.Run(context.Background(), tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq.SortCanonical()
	par.SortCanonical()
	if len(seq.OCs) != len(par.OCs) {
		t.Fatalf("OC counts differ: %d vs %d", len(seq.OCs), len(par.OCs))
	}
	for i := range seq.OCs {
		if len(seq.OCs[i].RemovalRows) != len(par.OCs[i].RemovalRows) {
			t.Fatalf("removal sets differ at %d", i)
		}
	}
}

// TestParallelPoolChargesPartitionTime pins the pool's partition accounting:
// pool workers build the context partitions their candidates read on demand
// and charge the time like the serial executor does, so the levels past 2 —
// whose contexts are all products of earlier levels — report partition time.
func TestParallelPoolChargesPartitionTime(t *testing.T) {
	tbl := gen.NCVoter(gen.NCVoterConfig{Rows: 1200, Attrs: 10, Seed: 42})
	var deep time.Duration
	levels := 0
	res, err := Pipeline{Executor: Pool(2), Sink: func(s Snapshot) {
		if s.Level > 2 {
			deep += s.LevelPartition
			levels++
		}
	}}.Run(context.Background(), tbl, Config{Validator: ValidatorExact, IncludeOFDs: true})
	if err != nil {
		t.Fatal(err)
	}
	if levels == 0 {
		t.Fatalf("discovery stopped at level %d; the test needs deeper levels", res.Stats.LevelsProcessed)
	}
	if deep <= 0 {
		t.Errorf("pool charged no partition time over %d levels past 2 (total %v)", levels, res.Stats.PartitionTime)
	}
}

// TestParallelBuildsEachPartitionOnce pins the partition memo's per-set guard
// under the pool: engines that race for the same unbuilt context wait for one
// build instead of repeating it, so Pool(4) splits exactly the partitions
// Serial() splits, run after run.
func TestParallelBuildsEachPartitionOnce(t *testing.T) {
	tbl := gen.NCVoter(gen.NCVoterConfig{Rows: 1200, Attrs: 10, Seed: 42})
	cfg := Config{Validator: ValidatorExact, IncludeOFDs: true}
	builds := func(exec Executor) uint64 {
		if _, err := (Pipeline{Executor: exec}).Run(context.Background(), tbl, cfg); err != nil {
			t.Fatal(err)
		}
		_, b := exec.(*localExecutor).engines[0].t.memo.Stats()
		return b
	}
	want := builds(Serial())
	for run := 0; run < 5; run++ {
		if got := builds(Pool(4)); got != want {
			t.Fatalf("run %d: Pool(4) split %d partitions, Serial() %d", run, got, want)
		}
	}
}
