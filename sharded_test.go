package aod

import (
	"bytes"
	"context"
	"testing"
)

// TestShardedReportByteIdentical pins the acceptance contract of every
// routing at the facade: the serialized Report of the sharded executor (at
// the default fan-out and at full width), the worker pool and a warm run is
// byte-identical to the serial one on every generated workload, non-timing
// stats included.
func TestShardedReportByteIdentical(t *testing.T) {
	pool := LoopbackShardPool(3)
	defer pool.Close()
	wide := LoopbackShardPool(3)
	wide.quantum = -1 // engage every worker, as ShardPoolOptions.WorkQuantum -1 does
	defer wide.Close()
	arena := NewPartitionArena(1 << 20)
	workloads := map[string]*Dataset{
		"table1":  Table1(),
		"flight":  Flight(800, 8, 5),
		"ncvoter": NCVoter(600, 6, 9),
	}
	options := []Options{
		{Threshold: 0.10, IncludeOFDs: true},
		{Threshold: 0.05, Algorithm: AlgorithmExact},
		{Threshold: 0.10, Algorithm: AlgorithmIterative, IncludeOFDs: true},
		{Threshold: 0.10, Bidirectional: true, CollectRemovalSets: true},
	}
	routings := []struct {
		name string
		set  func(o *Options, ds *Dataset)
	}{
		{"sharded", func(o *Options, _ *Dataset) { o.ShardPool = pool }},
		{"sharded-full-width", func(o *Options, _ *Dataset) { o.ShardPool = wide }},
		{"pool", func(o *Options, _ *Dataset) { o.Parallelism = 4 }},
		{"warm", func(o *Options, ds *Dataset) { o.Warm = Warm{Prepared: ds.Prepare(), Arena: arena} }},
	}
	// Timing stats differ run to run, by design; zero them so the byte
	// comparison covers everything else.
	encode := func(r *Report) []byte {
		r.Stats.ValidationTime, r.Stats.PartitionTime, r.Stats.TotalTime = 0, 0, 0
		var b bytes.Buffer
		if err := r.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	for name, ds := range workloads {
		for _, opts := range options {
			serial, err := Discover(ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := encode(serial)
			for _, r := range routings {
				o := opts
				r.set(&o, ds)
				rep, err := Discover(ds, o)
				if err != nil {
					t.Fatal(err)
				}
				if got := encode(rep); !bytes.Equal(want, got) {
					t.Errorf("%s %s %+v: report differs from serial:\nserial: %s\n%s: %s",
						name, r.name, opts, want, r.name, got)
				}
			}
		}
	}
}

// TestShardedNilPoolFallsBack: a nil pool is plain local discovery.
func TestShardedNilPoolFallsBack(t *testing.T) {
	ds := Table1()
	rep, err := Discover(ds, Options{Threshold: 0.12, ShardPool: nil})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.OCs) == 0 {
		t.Error("nil-pool sharded discovery found nothing")
	}
}

// TestShardedStreaming: the sharded path delivers the same per-level
// progress contract as the local one.
func TestShardedStreaming(t *testing.T) {
	pool := LoopbackShardPool(2)
	defer pool.Close()
	ds := Flight(500, 7, 3)
	var events []Progress
	rep, err := DiscoverContext(context.Background(), ds, Options{Threshold: 0.1, ShardPool: pool,
		OnLevel: func(p Progress, partial *Report) {
			events = append(events, p)
			if partial == nil {
				t.Error("nil partial report")
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events from sharded stream")
	}
	last := events[len(events)-1]
	if !last.Final {
		t.Error("last sharded progress event not Final")
	}
	if last.OCsFound != len(rep.OCs) {
		t.Errorf("final event reports %d OCs, report has %d", last.OCsFound, len(rep.OCs))
	}
}
