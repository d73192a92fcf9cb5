package core

import (
	"context"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"aod/internal/lattice"
)

// Discovery with the sorted-scan exact validator must produce exactly the
// same dependencies as the default sort-based route.
func TestSortedScanDiscoveryEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(400))
	for iter := 0; iter < 30; iter++ {
		tbl := randomTable(rng, 5+rng.Intn(40), 2+rng.Intn(4), 2+rng.Intn(4))
		base := Config{Validator: ValidatorExact, IncludeOFDs: true}
		std, err := Discover(tbl, base)
		if err != nil {
			t.Fatal(err)
		}
		scanCfg := base
		scanCfg.UseSortedScan = true
		scan, err := Discover(tbl, scanCfg)
		if err != nil {
			t.Fatal(err)
		}
		g, w := ocSet(scan), ocSet(std)
		if len(g) != len(w) {
			t.Fatalf("iter %d: scan %d OCs vs sort %d", iter, len(g), len(w))
		}
		for k := range w {
			if _, ok := g[k]; !ok {
				t.Fatalf("iter %d: scan missing OC %v", iter, k)
			}
		}
		if len(ofdSet(scan)) != len(ofdSet(std)) {
			t.Fatalf("iter %d: OFD counts differ", iter)
		}
	}
}

// UseSortedScan must be a no-op under the approximate validators.
func TestSortedScanIgnoredForApproximate(t *testing.T) {
	tbl := paperTable1(t)
	cfg := Config{Validator: ValidatorOptimal, Threshold: 0.12, UseSortedScan: true}
	withScan, err := Discover(tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	without, err := Discover(tbl, Config{Validator: ValidatorOptimal, Threshold: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	if len(withScan.OCs) != len(without.OCs) {
		t.Errorf("scan flag changed approximate results: %d vs %d", len(withScan.OCs), len(without.OCs))
	}
}

// A shard worker's runner takes the sorted-scan route like every executor:
// it keeps UseSortedScan and builds the per-attribute row orders the route
// reads alongside the memo's class ids, and its tasks match the sort route's.
func TestTaskRunnerTakesSortedScanRoute(t *testing.T) {
	tbl := paperTable1(t)
	prep := Prepare(tbl)
	scan, err := prep.NewTaskRunner(Config{Validator: ValidatorExact, UseSortedScan: true})
	if err != nil {
		t.Fatal(err)
	}
	if scan.t.orders == nil {
		t.Fatal("NewTaskRunner dropped the sorted-scan route")
	}
	sorted, err := prep.NewTaskRunner(Config{Validator: ValidatorExact})
	if err != nil {
		t.Fatal(err)
	}
	// Level-3 tasks with no pruning state: every pair is an OC candidate in
	// a one-attribute context.
	var tasks []NodeTask
	for set := uint64(0); set < 1<<tbl.NumCols(); set++ {
		if bits.OnesCount64(set) == 3 {
			tasks = append(tasks, NodeTask{Set: set, Level: 3, ParentConst: make([]uint64, 3),
				OCValid: lattice.NewPairSet(tbl.NumCols()).Words()})
		}
	}
	got, want := scan.RunLevel(context.Background(), tasks), sorted.RunLevel(context.Background(), tasks)
	for i := range want {
		got[i].Stats, want[i].Stats = TaskStats{}, TaskStats{}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("scan-route results differ from the sort route's:\nscan: %+v\nsort: %+v", got, want)
	}
}
