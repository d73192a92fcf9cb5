package core

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"aod/internal/dataset"
	"aod/internal/gen"
	"aod/internal/lattice"
	"aod/internal/partition"
)

// scanColumn builds a one-column table from the values and returns its
// partition, the context of a single-attribute OC candidate.
func scanColumn(t *testing.T, vals []int64) *partition.Stripped {
	t.Helper()
	tbl, err := dataset.NewBuilder().AddInts("c", vals).Build()
	if err != nil {
		t.Fatal(err)
	}
	return partition.Single(tbl.Column(0))
}

// TestSortedScanRoutePredicate pins takesScan: contexts of wide classes that
// cover most of the table take the scan, contexts of small classes, key
// contexts and a few wide classes in a large table take the class sort.
func TestSortedScanRoutePredicate(t *testing.T) {
	repeat := func(n int, f func(i int) int64) []int64 {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = f(i)
		}
		return vals
	}
	// A few 100-row classes in a 100K-row table: the mean passes
	// scanMinClassRows, but the scan would walk every row for 200 covered
	// ones.
	sparse := repeat(100_000, func(i int) int64 {
		if i < 200 {
			return int64(i % 2)
		}
		return int64(i)
	})
	for _, tc := range []struct {
		name string
		ctx  *partition.Stripped
		scan bool
	}{
		{"universe", partition.Universe(10_000), true},
		{"low-cardinality column", scanColumn(t, repeat(10_000, func(i int) int64 { return int64(i % 5) })), true},
		{"2-row classes", scanColumn(t, repeat(10_000, func(i int) int64 { return int64(i / 2) })), false},
		{"16-row classes", scanColumn(t, repeat(10_000, func(i int) int64 { return int64(i / 16) })), false},
		{"key", scanColumn(t, repeat(10_000, func(i int) int64 { return int64(i) })), false},
		{"few wide classes, large table", scanColumn(t, sparse), false},
		// The boundary: two 64-row classes covering exactly half the table
		// take the scan; one row fewer per class, or one more key row, does
		// not.
		{"mean 64, half covered", scanColumn(t, repeat(256, func(i int) int64 {
			if i < 128 {
				return int64(i % 2)
			}
			return int64(i)
		})), true},
		{"mean 63", scanColumn(t, repeat(252, func(i int) int64 {
			if i < 126 {
				return int64(i % 2)
			}
			return int64(i)
		})), false},
		{"under half covered", scanColumn(t, repeat(257, func(i int) int64 {
			if i < 128 {
				return int64(i % 2)
			}
			return int64(i)
		})), false},
	} {
		if got := takesScan(tc.ctx); got != tc.scan {
			t.Errorf("%s (%d rows in %d classes of %d): takesScan %v, want %v",
				tc.name, tc.ctx.Size(), tc.ctx.NumClasses(), tc.ctx.N, got, tc.scan)
		}
	}
}

// routeCounts reports how many OC contexts (attribute sets of at most
// attrs−2 columns) of the table take the sorted scan and how many the sort.
func routeCounts(tbl *dataset.Table) (scan, sort int) {
	memo := partition.NewMemo(tbl, nil, nil)
	for set := uint64(0); set < 1<<tbl.NumCols(); set++ {
		if bits.OnesCount64(set) > tbl.NumCols()-2 {
			continue
		}
		if takesScan(memo.Get(set, nil)) {
			scan++
		} else {
			sort++
		}
	}
	return scan, sort
}

// plantedTable returns a table whose wide contexts hold OCs in both
// directions: a and c are random (c of 2–3 values), up rises and down falls
// with a inside each class of c (but not across them), and each of those
// two misses its rule on about one row in `noise`; extra random columns of
// about 16 rows per value follow.
func plantedTable(rng *rand.Rand, rows, extra, domain, noise int) *dataset.Table {
	b := dataset.NewBuilder()
	a, c := make([]int64, rows), make([]int64, rows)
	up, down := make([]int64, rows), make([]int64, rows)
	classes := 2 + rng.Intn(2)
	for i := range a {
		a[i], c[i] = int64(rng.Intn(domain)), int64(rng.Intn(classes))
		up[i], down[i] = a[i]+16*c[i], 16*c[i]-a[i]
		if rng.Intn(noise) == 0 {
			up[i] = int64(rng.Intn(16 * classes))
		}
		if rng.Intn(noise) == 0 {
			down[i] = int64(rng.Intn(16 * classes))
		}
	}
	b.AddInts("a", a).AddInts("c", c).AddInts("up", up).AddInts("down", down)
	for e := 0; e < extra; e++ {
		vals := make([]int64, rows)
		for i := range vals {
			vals[i] = int64(rng.Intn(rows / 16))
		}
		b.AddInts(fmt.Sprintf("x%d", e), vals)
	}
	tbl, err := b.Build()
	if err != nil {
		panic(err)
	}
	return tbl
}

// Exact discovery routes each OC candidate by its context; on tables large
// enough that both routes run, with OCs that hold and fail on each route in
// both directions, it must still equal the brute-force reference, and a
// pool, whose engines build the route's class ids and row orders
// concurrently, must match the serial run.
func TestSortedScanDiscoveryEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(400))
	for iter := 0; iter < 20; iter++ {
		tbl := plantedTable(rng, 200+rng.Intn(300), 1+rng.Intn(2), 3+rng.Intn(6), 100+rng.Intn(400))
		if scan, sort := routeCounts(tbl); scan == 0 || sort == 0 {
			t.Fatalf("iter %d: %d contexts take the scan and %d the sort, want both", iter, scan, sort)
		}
		cfg := Config{Validator: ValidatorExact, IncludeOFDs: true, Bidirectional: iter%2 == 1}
		label := fmt.Sprintf("iter %d (%d rows, bidirectional %v)", iter, tbl.NumRows(), cfg.Bidirectional)
		checkAgainstReference(t, label, tbl, cfg)
		serial, err := Discover(tbl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pool, err := Pipeline{Executor: Pool(2)}.Run(context.Background(), tbl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial.OCs, pool.OCs) || !reflect.DeepEqual(serial.OFDs, pool.OFDs) {
			t.Fatalf("%s: Pool(2) differs from Serial()", label)
		}
	}
}

// Only the exact validator has a sorted-scan route: approximate validators
// build no row orders.
func TestSortedScanIgnoredForApproximate(t *testing.T) {
	tbl := gen.Flight(gen.FlightConfig{Rows: 2000, Attrs: 6, Seed: 3})
	for _, cfg := range []Config{
		{Validator: ValidatorOptimal, Threshold: 0.12},
		{Validator: ValidatorIterative, Threshold: 0.12},
		{Validator: ValidatorExact},
	} {
		for _, exec := range []Executor{Serial(), Pool(2)} {
			tr := &traversal{tbl: tbl, cfg: cfg, numAttrs: tbl.NumCols(), res: &Result{}}
			if !exec.prepare(tr) {
				t.Fatalf("%v: prepare aborted", cfg.Validator)
			}
			if want := cfg.Validator == ValidatorExact; (tr.orders != nil) != want {
				t.Errorf("%v: row orders built %v, want %v", cfg.Validator, tr.orders != nil, want)
			}
		}
		prep := Prepare(tbl)
		r, err := prep.NewTaskRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := cfg.Validator == ValidatorExact; (r.t.orders != nil) != want {
			t.Errorf("%v runner: row orders built %v, want %v", cfg.Validator, r.t.orders != nil, want)
		}
	}
}

// A shard worker's runner routes exact OC candidates like every executor: on
// a table whose level-2 and level-3 contexts all take the sorted scan, a
// plain exact config's tasks match those of a runner held to the class sort.
func TestTaskRunnerTakesSortedScanRoute(t *testing.T) {
	tbl := randomTable(rand.New(rand.NewSource(401)), 600, 5, 3)
	prep := Prepare(tbl)
	cfg := Config{Validator: ValidatorExact, IncludeOFDs: true, Bidirectional: true}
	scan, err := prep.NewTaskRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if scan.t.orders == nil {
		t.Fatal("NewTaskRunner built no row orders for the exact validator")
	}
	sorted, err := prep.NewTaskRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sorted.t.orders = nil // the class-sort route only
	// Level-2 and level-3 tasks with no pruning state: every pair is an OC
	// candidate in the universe or a one-attribute context, and all of
	// those take the scan.
	numAttrs := tbl.NumCols()
	memo := partition.NewMemo(tbl, nil, nil)
	contexts := []uint64{0}
	for a := 0; a < numAttrs; a++ {
		contexts = append(contexts, 1<<a)
	}
	for _, set := range contexts {
		if ctx := memo.Get(set, nil); !takesScan(ctx) {
			t.Fatalf("context %b takes the sort (%d rows in %d classes)", set, ctx.Size(), ctx.NumClasses())
		}
	}
	for level := 2; level <= 3; level++ {
		var tasks []NodeTask
		for set := uint64(0); set < 1<<numAttrs; set++ {
			if bits.OnesCount64(set) != level {
				continue
			}
			tasks = append(tasks, NodeTask{Set: set, Level: level, ParentConst: make([]uint64, level),
				OCValid: lattice.NewPairSet(numAttrs).Words(), OCValidDesc: lattice.NewPairSet(numAttrs).Words()})
		}
		got, want := runLevel(t, scan, context.Background(), tasks), runLevel(t, sorted, context.Background(), tasks)
		for i := range want {
			got[i].Stats, want[i].Stats = TaskStats{}, TaskStats{}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("level %d: scan-route results differ from the sort route's:\nscan: %+v\nsort: %+v", level, got, want)
		}
	}
}
