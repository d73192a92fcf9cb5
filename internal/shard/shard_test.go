package shard

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"aod/internal/core"
	"aod/internal/dataset"
	"aod/internal/gen"
	"aod/internal/partition"
)

// discoverWith runs the pipeline under the given executor.
func discoverWith(t *testing.T, tbl *dataset.Table, cfg core.Config, exec core.Executor) *core.Result {
	t.Helper()
	res, err := core.Pipeline{Executor: exec}.Run(context.Background(), tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// normalizeRemovals maps empty removal slices to nil so a JSON round trip
// (omitempty) cannot fail a deep comparison.
func normalizeRemovals(res *core.Result) {
	for i := range res.OCs {
		if len(res.OCs[i].RemovalRows) == 0 {
			res.OCs[i].RemovalRows = nil
		}
	}
	for i := range res.OFDs {
		if len(res.OFDs[i].RemovalRows) == 0 {
			res.OFDs[i].RemovalRows = nil
		}
	}
}

// requireIdentical asserts result-and-stats identity: dependency slices in
// exact discovery order, and every non-timing stat equal.
func requireIdentical(t *testing.T, label string, want, got *core.Result) {
	t.Helper()
	normalizeRemovals(want)
	normalizeRemovals(got)
	if !reflect.DeepEqual(want.OCs, got.OCs) {
		t.Errorf("%s: OCs differ:\nwant %v\ngot  %v", label, want.OCs, got.OCs)
	}
	if !reflect.DeepEqual(want.OFDs, got.OFDs) {
		t.Errorf("%s: OFDs differ:\nwant %v\ngot  %v", label, want.OFDs, got.OFDs)
	}
	ws, gs := want.Stats, got.Stats
	ws.ValidationTime, gs.ValidationTime = 0, 0
	ws.PartitionTime, gs.PartitionTime = 0, 0
	ws.TotalTime, gs.TotalTime = 0, 0
	if !reflect.DeepEqual(ws, gs) {
		t.Errorf("%s: non-timing stats differ:\nwant %+v\ngot  %+v", label, ws, gs)
	}
}

// TestExecutorEquivalenceMatrix pins Serial ≡ Pool ≡ Sharded(loopback) —
// results in exact discovery order and identical non-timing stats — across
// every validator, with bidirectional search, OFD reporting, and removal-set
// collection in the mix. Exact candidates over wide contexts take the
// sorted-scan route under every executor; exact-scan adds bidirectional
// search, so reversed B columns take it too. The ncvoter table runs 7–9
// levels deep, where pool workers share one partition memo and shard workers
// fold long split chains in theirs.
func TestExecutorEquivalenceMatrix(t *testing.T) {
	tables := map[string]*dataset.Table{
		"flight":  gen.Flight(gen.FlightConfig{Rows: 300, Attrs: 7, Seed: 11}),
		"uniform": gen.Uniform(200, 6, 4, 7),
		"ncvoter": gen.NCVoter(gen.NCVoterConfig{Rows: 1200, Attrs: 10, Seed: 5}),
	}
	configs := map[string]core.Config{
		"exact":      {Validator: core.ValidatorExact, IncludeOFDs: true},
		"exact-scan": {Validator: core.ValidatorExact, IncludeOFDs: true, Bidirectional: true},
		"optimal":    {Threshold: 0.10, Validator: core.ValidatorOptimal, IncludeOFDs: true, CollectRemovalSets: true},
		"iterative":  {Threshold: 0.10, Validator: core.ValidatorIterative, IncludeOFDs: true},
		"bidi":       {Threshold: 0.08, Validator: core.ValidatorOptimal, Bidirectional: true, IncludeOFDs: true},
	}
	for tname, tbl := range tables {
		for cname, cfg := range configs {
			want := discoverWith(t, tbl, cfg, core.Serial())
			// sharded-straggler exercises dispatch under skew: one worker
			// delays every slice past the straggler deadline, so re-dispatch
			// races and the in-order commit of slices that land out of order
			// interleave — and the result must still be byte-identical.
			straggler := NewLoopback(Config{StragglerAfter: 5 * time.Millisecond}, []*Worker{
				NewWorker(WorkerOptions{}),
				NewWorker(WorkerOptions{LevelHook: func(level, tasks int) error {
					time.Sleep(15 * time.Millisecond)
					return nil
				}}),
				NewWorker(WorkerOptions{}),
			})
			executors := map[string]core.Executor{
				"pool-3":            core.Pool(3),
				"sharded-lb2":       core.Sharded(Loopback(2)),
				"sharded-lb3":       core.Sharded(Loopback(3)),
				"sharded-straggler": core.Sharded(straggler),
			}
			for ename, exec := range executors {
				got := discoverWith(t, tbl, cfg, exec)
				requireIdentical(t, tname+"/"+cname+"/"+ename, want, got)
			}
		}
	}
}

// TestPartitionShippingEquivalence runs the table that engaged partition
// shipping under protocol v3, now that v4 ships none: with the pool at full
// width (quantum -1, so every level splits into one slice per worker),
// several workers each fold deep context partitions from their cached
// single-column partitions, and the result is byte-identical to the serial
// run, including under a forced straggler whose slices are re-dispatched.
func TestPartitionShippingEquivalence(t *testing.T) {
	tbl := gen.Flight(gen.FlightConfig{Rows: 2500, Attrs: 6, Seed: 17})
	cfg := core.Config{Threshold: 0.10, Validator: core.ValidatorOptimal, IncludeOFDs: true, CollectRemovalSets: true}
	want := discoverWith(t, tbl, cfg, core.Serial())

	cases := map[string]func() []*Worker{
		"lb3": func() []*Worker {
			return []*Worker{NewWorker(WorkerOptions{}), NewWorker(WorkerOptions{}), NewWorker(WorkerOptions{})}
		},
		"straggler": func() []*Worker {
			return []*Worker{
				NewWorker(WorkerOptions{}),
				NewWorker(WorkerOptions{LevelHook: func(level, tasks int) error {
					time.Sleep(15 * time.Millisecond)
					return nil
				}}),
				NewWorker(WorkerOptions{}),
			}
		},
	}
	for name, mk := range cases {
		workers := mk()
		var clusterCfg Config
		if name == "straggler" {
			clusterCfg.StragglerAfter = 5 * time.Millisecond
		}
		cluster := NewLoopback(clusterCfg, workers)
		got := discoverWith(t, tbl, cfg, core.ShardedQuantum(cluster, -1))
		requireIdentical(t, "fold/"+name, want, got)
		for i, w := range workers {
			if w.TasksRun() == 0 {
				t.Errorf("%s: worker %d ran no tasks — the level was not split across workers", name, i)
			}
		}
		cluster.Close()
	}
}

// TestPartitionShippingWarmEqualsCold runs the former shipping-scale job,
// full-width sharded, twice through one shared PreparedTable and bounded
// arena — the server's warm path — against a cold serial run: all reports
// must be identical.
func TestPartitionShippingWarmEqualsCold(t *testing.T) {
	tbl := gen.Flight(gen.FlightConfig{Rows: 2500, Attrs: 6, Seed: 29})
	cfg := core.Config{Threshold: 0.10, Validator: core.ValidatorOptimal, IncludeOFDs: true}
	want := discoverWith(t, tbl, cfg, core.Serial())

	prep := core.Prepare(tbl)
	arena := partition.NewArenaLimit(32 << 20)
	for run := 0; run < 2; run++ {
		cluster := NewLoopback(Config{}, []*Worker{NewWorker(WorkerOptions{}), NewWorker(WorkerOptions{})})
		res, err := core.Pipeline{
			Executor: core.ShardedQuantum(cluster, -1),
			Prepared: prep,
			Arena:    arena,
		}.Run(context.Background(), tbl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, fmt.Sprintf("warm run %d", run), want, res)
		cluster.Close()
	}
}

// TestShardedWorkerDeathMidJob kills one of two loopback workers partway
// through the lattice: the session retries the slice on the surviving worker
// (or the coordinator falls back locally), the job completes, and the result
// is still identical to the serial run.
func TestShardedWorkerDeathMidJob(t *testing.T) {
	tbl := gen.Flight(gen.FlightConfig{Rows: 400, Attrs: 8, Seed: 3})
	cfg := core.Config{Threshold: 0.10, Validator: core.ValidatorOptimal, IncludeOFDs: true}
	want := discoverWith(t, tbl, cfg, core.Serial())

	dieAt := 3
	w0 := NewWorker(WorkerOptions{})
	w1 := NewWorker(WorkerOptions{LevelHook: func(level, tasks int) error {
		if level >= dieAt {
			return errors.New("injected death")
		}
		return nil
	}})
	cluster := NewLoopback(Config{}, []*Worker{w0, w1})
	got := discoverWith(t, tbl, cfg, core.Sharded(cluster))
	requireIdentical(t, "death", want, got)

	snap := cluster.Snapshot()
	var failures uint64
	for _, st := range snap {
		failures += st.Failures
	}
	if failures == 0 {
		t.Error("expected the dead worker's failure to be recorded in the cluster snapshot")
	}
}

// TestShardedAllWorkersDeadFallsBackLocally runs a sharded job whose every
// worker dies on the first level: the coordinator executes everything itself
// and the job still matches the serial run.
func TestShardedAllWorkersDeadFallsBackLocally(t *testing.T) {
	tbl := gen.Uniform(150, 5, 3, 9)
	cfg := core.Config{Threshold: 0.12, Validator: core.ValidatorOptimal, IncludeOFDs: true}
	want := discoverWith(t, tbl, cfg, core.Serial())

	die := func(level, tasks int) error { return errors.New("dead on arrival") }
	cluster := NewLoopback(Config{}, []*Worker{
		NewWorker(WorkerOptions{LevelHook: die}),
		NewWorker(WorkerOptions{LevelHook: die}),
	})
	got := discoverWith(t, tbl, cfg, core.Sharded(cluster))
	requireIdentical(t, "all-dead", want, got)
}

// TestShardedUnreachablePoolRunsLocally points the cluster at an address
// nothing listens on: Open fails and the executor degrades to fully local
// execution instead of failing the job.
func TestShardedUnreachablePoolRunsLocally(t *testing.T) {
	tbl := gen.Uniform(100, 4, 3, 5)
	cfg := core.Config{Threshold: 0.10, Validator: core.ValidatorOptimal}
	want := discoverWith(t, tbl, cfg, core.Serial())

	cluster := New([]string{"127.0.0.1:1"}, Config{DialTimeout: 200 * time.Millisecond})
	got := discoverWith(t, tbl, cfg, core.Sharded(cluster))
	requireIdentical(t, "unreachable", want, got)

	snap := cluster.Snapshot()
	if len(snap) != 1 || snap[0].Healthy || snap[0].Failures == 0 {
		t.Errorf("snapshot should record the dial failure: %+v", snap)
	}
}

// TestShardedCancellation cancels a sharded run mid-flight: the partial
// result returns promptly with Stats.Canceled set.
func TestShardedCancellation(t *testing.T) {
	tbl := gen.Flight(gen.FlightConfig{Rows: 2000, Attrs: 9, Seed: 21})
	cfg := core.Config{Threshold: 0.10, Validator: core.ValidatorOptimal}
	ctx, cancel := context.WithCancel(context.Background())
	cluster := NewLoopback(Config{}, []*Worker{NewWorker(WorkerOptions{LevelHook: func(level, tasks int) error {
		if level == 2 {
			cancel() // cancel while the worker holds a slice
		}
		return nil
	}})})
	res, err := core.Pipeline{Executor: core.Sharded(cluster)}.Run(ctx, tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Canceled {
		t.Error("canceled sharded run should set Stats.Canceled")
	}
}

// TestWorkerDatasetCache verifies the fingerprint handshake: two jobs over
// the same dataset ship the payload once; a different dataset ships again.
func TestWorkerDatasetCache(t *testing.T) {
	w := NewWorker(WorkerOptions{})
	cluster := NewLoopback(Config{}, []*Worker{w})
	tbl1 := gen.Uniform(80, 4, 3, 1)
	tbl2 := gen.Uniform(90, 4, 3, 2)
	cfg := core.Config{Threshold: 0.1, Validator: core.ValidatorOptimal}

	discoverWith(t, tbl1, cfg, core.Sharded(cluster))
	discoverWith(t, tbl1, cfg, core.Sharded(cluster))
	if got := w.DatasetLoads(); got != 1 {
		t.Errorf("dataset shipped %d times for two identical jobs, want 1", got)
	}
	discoverWith(t, tbl2, cfg, core.Sharded(cluster))
	if got := w.DatasetLoads(); got != 2 {
		t.Errorf("dataset loads after a second dataset: %d, want 2", got)
	}
	if got := w.CachedDatasets(); got != 2 {
		t.Errorf("cached datasets: %d, want 2", got)
	}
	if got := w.Sessions(); got != 3 {
		t.Errorf("sessions: %d, want 3", got)
	}
}

// TestWorkerDatasetCacheEviction bounds the prepared-dataset cache.
func TestWorkerDatasetCacheEviction(t *testing.T) {
	w := NewWorker(WorkerOptions{MaxDatasets: 2})
	cluster := NewLoopback(Config{}, []*Worker{w})
	cfg := core.Config{Threshold: 0.1, Validator: core.ValidatorOptimal}
	for seed := int64(1); seed <= 4; seed++ {
		discoverWith(t, gen.Uniform(60, 3, 3, seed), cfg, core.Sharded(cluster))
	}
	if got := w.CachedDatasets(); got != 2 {
		t.Errorf("cached datasets after eviction: %d, want 2", got)
	}
}

// TestTCPTransport runs a real TCP worker on an ephemeral port and checks
// the sharded run against serial — the same path cmd/aodworker serves.
func TestTCPTransport(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	w := NewWorker(WorkerOptions{})
	go w.Serve(ln)

	tbl := gen.Flight(gen.FlightConfig{Rows: 250, Attrs: 6, Seed: 8})
	cfg := core.Config{Threshold: 0.10, Validator: core.ValidatorOptimal, IncludeOFDs: true}
	want := discoverWith(t, tbl, cfg, core.Serial())
	cluster := New([]string{ln.Addr().String()}, Config{})
	got := discoverWith(t, tbl, cfg, core.Sharded(cluster))
	requireIdentical(t, "tcp", want, got)
	if w.TasksRun() == 0 {
		t.Error("TCP worker processed no tasks")
	}
}

// TestStragglerRedispatch delays one worker far past the straggler window;
// the slice must complete promptly on the other worker with the result
// still identical to serial.
func TestStragglerRedispatch(t *testing.T) {
	tbl := gen.Uniform(120, 5, 3, 13)
	cfg := core.Config{Threshold: 0.10, Validator: core.ValidatorOptimal}
	want := discoverWith(t, tbl, cfg, core.Serial())

	slow := NewWorker(WorkerOptions{LevelHook: func(level, tasks int) error {
		time.Sleep(400 * time.Millisecond)
		return nil
	}})
	fast := NewWorker(WorkerOptions{})
	cluster := NewLoopback(Config{StragglerAfter: 30 * time.Millisecond}, []*Worker{slow, fast})

	start := time.Now()
	got := discoverWith(t, tbl, cfg, core.Sharded(cluster))
	requireIdentical(t, "straggler", want, got)
	// Not a strict timing assertion — just a sanity ceiling far below the
	// serialized all-slow path.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("straggler re-dispatch took %s", elapsed)
	}
}

// TestFrameRoundTrip pins the framing layer across both encodings: a binary
// payload frame and a JSON handshake frame.
func TestFrameRoundTrip(t *testing.T) {
	frames := []*frame{
		{T: "level", Level: &levelMsg{Level: 3, Trace: "tr-1", Tasks: []core.NodeTask{{
			Set: 0b1011, Level: 3, ConstValid: 0b0010,
			ParentConst: []uint64{0, 2, 0}, OCValid: []uint64{5},
		}}}},
		{T: "hello", Hello: &helloMsg{Proto: protoVersion, Fingerprint: "fp", Rows: 7, Cols: 3}},
		{T: "result", Result: &resultMsg{Results: []core.NodeResult{{
			Candidates: 2, NewConst: 0b100,
			OCs: []core.TaskOC{{A: 1, B: 2, Descending: true, Error: 0.25,
				Removals: 3, RemovalRows: []int32{4, 9, 11}}},
			OFDs: []core.TaskOFD{{A: 0, Error: 0.5, Removals: 1, RemovalRows: []int32{2}}},
		}}}},
	}
	for _, in := range frames {
		c1, c2 := net.Pipe()
		go func() {
			n, err := writeFrame(c1, in)
			if err != nil || n <= 4 {
				t.Errorf("%s: writeFrame returned (%d, %v)", in.T, n, err)
			}
			c1.Close()
		}()
		out, n, err := readFrame(c2)
		c2.Close()
		if err != nil {
			t.Fatalf("%s: %v", in.T, err)
		}
		if n <= 4 {
			t.Errorf("%s: readFrame consumed %d bytes", in.T, n)
		}
		if !reflect.DeepEqual(in, out) {
			t.Errorf("%s frame round trip:\nwant %+v\ngot  %+v", in.T, in, out)
		}
	}
}
