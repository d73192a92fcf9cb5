package aod

import (
	"time"

	"aod/internal/shard"
)

// ShardPoolOptions tunes a shard pool's fan-out and failure policy. The zero
// value selects production defaults.
type ShardPoolOptions struct {
	// WorkQuantum sizes each run's worker fan-out: one worker is engaged per
	// this much estimated work (EstimateWork units), bounded by the pool's
	// width. Every engaged worker rebuilds the context partitions its slices
	// read, so small runs are faster on fewer workers. 0 selects the default
	// (4Mi units); negative always engages the full pool.
	WorkQuantum int64
	// DialTimeout bounds connecting + handshaking one worker per job
	// (default 5s).
	DialTimeout time.Duration
	// CallTimeout bounds one level-slice round trip (default 2m).
	CallTimeout time.Duration
	// StragglerAfter re-dispatches a slice to a second worker when the first
	// has not answered after this long, first answer wins (default 15s;
	// negative disables).
	StragglerAfter time.Duration
	// Logf, when non-nil, receives one line per notable pool event.
	Logf func(format string, args ...any)
	// Metrics, when non-nil, receives the pool's RPC latency histogram and
	// retry/re-dispatch counters (aod_shard_*). Pass the same registry to
	// service.Config.Metrics to serve both from one /metrics endpoint.
	Metrics *MetricsRegistry
}

// ShardPool is a pool of aodworker processes that discovery jobs can slice
// lattice levels across. Workers cache datasets by content fingerprint (the
// payload ships to each worker at most once per dataset) and each job opens
// its own session over the live workers. The pool degrades rather than
// fails: dead or straggling workers have their slices re-dispatched, and a
// fully unreachable pool runs jobs locally.
//
// A ShardPool is safe for concurrent use by many jobs; the aodserver creates
// one from its -workers flag and shares it across the job manager.
type ShardPool struct {
	cluster *shard.Cluster
	quantum int64
}

// DialShardPool returns a pool over TCP worker addresses (host:port). No
// connection is made up front — workers are dialed per job, so workers may
// come and go across the pool's lifetime.
func DialShardPool(addrs []string, opts ShardPoolOptions) *ShardPool {
	return &ShardPool{cluster: shard.New(addrs, shard.Config{
		DialTimeout:    opts.DialTimeout,
		CallTimeout:    opts.CallTimeout,
		StragglerAfter: opts.StragglerAfter,
		Logf:           opts.Logf,
		Metrics:        opts.Metrics,
	}), quantum: opts.WorkQuantum}
}

// LoopbackShardPool returns a pool of n in-process workers speaking the full
// wire protocol over pipes — the sharded path without processes, used by
// tests and the aodbench `sharded` workload.
func LoopbackShardPool(n int) *ShardPool {
	return &ShardPool{cluster: shard.Loopback(n)}
}

// Close releases the pool.
func (p *ShardPool) Close() { p.cluster.Close() }

// ShardWorkerStatus is one worker's health and assignment record.
type ShardWorkerStatus struct {
	Addr string `json:"addr"`
	// Healthy reflects the last interaction with the worker; unhealthy
	// workers are still retried on later jobs.
	Healthy bool `json:"healthy"`
	// Sessions counts successful job handshakes; AssignedTasks counts node
	// tasks dispatched to the worker.
	Sessions      uint64 `json:"sessions"`
	AssignedTasks uint64 `json:"assignedTasks"`
	Failures      uint64 `json:"failures"`
	LastError     string `json:"lastError,omitempty"`
}

// Workers returns every worker's current status, ordered by address.
func (p *ShardPool) Workers() []ShardWorkerStatus {
	snap := p.cluster.Snapshot()
	out := make([]ShardWorkerStatus, len(snap))
	for i, st := range snap {
		out[i] = ShardWorkerStatus(st)
	}
	return out
}
