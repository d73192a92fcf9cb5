package service

import (
	"math"
	"testing"

	"aod"
)

// TestPickExecutor pins the adaptive router's decision table: the work
// estimate picks the tier, explicit Parallelism is never downgraded to
// serial, and a negative ShardCostMin with a maximal SerialCostMax routes
// like a router that ignores the estimate (sharded iff a pool is
// configured, otherwise the job's own Parallelism decides).
func TestPickExecutor(t *testing.T) {
	pool := aod.LoopbackShardPool(1)
	defer pool.Close()

	cases := []struct {
		name string
		cfg  Config
		cost int64
		par  int
		want executorChoice
	}{
		{"tiny-serial", Config{}, 1000, 0, execSerial},
		{"tiny-at-boundary", Config{}, DefaultSerialCostMax, 0, execSerial},
		{"mid-pool", Config{}, DefaultSerialCostMax + 1, 0, execPool},
		{"large-no-shardpool-stays-pool", Config{}, DefaultShardCostMin, 0, execPool},
		{"large-sharded", Config{ShardPool: pool}, DefaultShardCostMin, 0, execSharded},
		{"just-under-shard-min", Config{ShardPool: pool}, DefaultShardCostMin - 1, 0, execPool},
		{"explicit-parallelism-never-serial", Config{}, 1000, 4, execPool},
		{"shard-cost-min-override", Config{ShardPool: pool, ShardCostMin: 1}, 1000, 0, execSharded},
		{"serial-cost-max-negative-no-serial-tier", Config{SerialCostMax: -1}, 1, 0, execPool},
		{"disabled-sharded-when-pool", Config{ShardCostMin: -1, SerialCostMax: math.MaxInt64, ShardPool: pool}, 1, 0, execSharded},
		{"disabled-serial-without-pool", Config{ShardCostMin: -1, SerialCostMax: math.MaxInt64}, 1 << 40, 0, execSerial},
		{"disabled-pool-on-parallelism", Config{ShardCostMin: -1, SerialCostMax: math.MaxInt64}, 1, 4, execPool},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Workers = 1
			s := New(cfg)
			defer s.Close()
			j := &Job{initialCost: tc.cost, opts: aod.Options{Parallelism: tc.par}}
			if got := s.pickExecutor(j); got != tc.want {
				t.Errorf("pickExecutor(cost=%d, par=%d) = %v, want %v", tc.cost, tc.par, got, tc.want)
			}
		})
	}
}

// TestAdaptiveRoutingCounters pins that a validation run increments exactly
// one aod_jobs_routed_total series, surfaced through Stats.
func TestAdaptiveRoutingCounters(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	info, _, err := s.Registry().Add("d", multiLevelDataset(t, 200, 4))
	if err != nil {
		t.Fatal(err)
	}
	view, err := s.Submit(info.ID, aod.Options{Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, view.ID, JobDone)
	st := s.Stats()
	if st.JobsRoutedSerial != 1 || st.JobsRoutedPool != 0 || st.JobsRoutedSharded != 0 {
		t.Errorf("routed counters = serial %d / pool %d / sharded %d, want a 200×4 job routed serial once",
			st.JobsRoutedSerial, st.JobsRoutedPool, st.JobsRoutedSharded)
	}
}
