package bench

import (
	"os"
	"testing"

	"aod/internal/telemetry"
)

// TestShardedOverheadGuard measures the shard protocol tax directly: the
// discover-sharded-loopback workload (full wire protocol over in-process
// workers — binary columnar frames, per-level slice dispatch) against
// discover-pool on the same 5k-row dataset, same process, interleaved runs.
// The budget is sharded/pool ≤ 1.05 — the protocol-v2 contract — gated at
// 1.15 to absorb CI-runner noise. Opt-in via AOD_BENCH_GUARD=1 — the run
// takes tens of seconds, far too slow for the ordinary test suite.
func TestShardedOverheadGuard(t *testing.T) {
	if os.Getenv("AOD_BENCH_GUARD") == "" {
		t.Skip("set AOD_BENCH_GUARD=1 to run the shard overhead guard")
	}
	var pool, sharded func(b *testing.B)
	for _, wl := range jsonWorkloads(42) {
		switch wl.name {
		case "discover-pool/n=5000,attrs=10":
			pool = wl.fn
		case "discover-sharded-loopback/n=5000,attrs=10":
			sharded = wl.fn
		}
	}
	if pool == nil || sharded == nil {
		t.Fatal("guard workloads missing from jsonWorkloads")
	}

	const runs = 5
	nsOf := func(fn func(b *testing.B)) float64 {
		r := testing.Benchmark(fn)
		if r.N == 0 {
			t.Fatal("benchmark run failed")
		}
		return float64(r.T.Nanoseconds()) / float64(r.N)
	}
	poolNs := make([]float64, 0, runs)
	shardedNs := make([]float64, 0, runs)
	for i := 0; i < runs; i++ { // interleaved, so drift hits both sides alike
		poolNs = append(poolNs, nsOf(pool))
		shardedNs = append(shardedNs, nsOf(sharded))
	}
	p50Pool := telemetry.ExactQuantile(poolNs, 0.50)
	p50Sharded := telemetry.ExactQuantile(shardedNs, 0.50)
	ratio := p50Sharded / p50Pool
	t.Logf("sharded %.1fms vs pool %.1fms: ratio %.3f (budget 1.05, gate 1.15)",
		p50Sharded/1e6, p50Pool/1e6, ratio)
	if ratio > 1.15 {
		t.Errorf("sharded/pool ratio %.3f exceeds the 1.15 gate (budget is 1.05)", ratio)
	}
}
