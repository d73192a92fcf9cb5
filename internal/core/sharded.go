package core

import (
	"context"
	"fmt"
	"runtime"

	"aod/internal/dataset"
	"aod/internal/lattice"
	"aod/internal/telemetry"
)

// ShardPool provisions shard workers for one discovery run. It is
// implemented by internal/shard.Cluster (TCP workers or the in-process
// loopback transport); core only sees the session contract.
type ShardPool interface {
	// Open pins the run's dataset and configuration on every reachable
	// worker (fingerprint handshake; the dataset payload ships only to
	// workers that don't already cache it) and returns the session. An error
	// means no worker is usable — the sharded executor then degrades to
	// local execution rather than failing the run.
	Open(ctx context.Context, tbl *dataset.Table, cfg Config) (ShardSession, error)
}

// ShardSession is one run's window onto the worker pool.
type ShardSession interface {
	// Width is the number of healthy shards; each lattice level is split
	// into at most Width contiguous slices dispatched concurrently.
	Width() int
	// RunSlice processes one slice of a level on shard `shard`, returning
	// results in task order. Implementations own the per-shard timeout,
	// retry-on-another-shard, and straggler re-dispatch policies; an error
	// means every route failed and the caller should run the slice locally.
	RunSlice(ctx context.Context, shard, level int, tasks []NodeTask) ([]NodeResult, error)
	Close() error
}

// Sharded returns the distributed executor: each lattice level's tasks are
// sliced contiguously across the pool's shards, executed remotely, and the
// results merged in node order — so reports and non-timing stats are
// identical to Serial()'s, only the machines differ. Every failure mode
// degrades instead of failing the job: an unreachable pool runs the whole
// job locally, a dead or straggling worker has its slice re-dispatched by
// the session or, last, executed locally by the coordinator. A level is
// dispatched once the previous one has committed, since which sets the next
// level holds depends on its verdicts (see lattice.NextLevel).
func Sharded(pool ShardPool) Executor { return ShardedQuantum(pool, -1) }

// DefaultShardWorkQuantum is the estimated work (rows × attrs × levels, see
// EstimateCost) each engaged shard worker must have under ShardedQuantum's
// width policy. Every worker re-derives the partitions of its slice's parent
// and grandparent sets independently, so each extra worker costs a roughly
// fixed CPU tax in duplicated partition products; below about four million
// work units that tax outweighs what another worker can contribute.
const DefaultShardWorkQuantum = 4 << 20

// ShardedQuantum is Sharded with adaptive width: the executor engages
// clamp(estimatedWork/quantum, 1, session width) workers instead of always
// fanning out to every healthy shard. Small jobs then run on one worker —
// still through the full wire protocol, but without paying the per-worker
// partition-duplication tax — and the engaged width grows by one worker per
// `quantum` of estimated work. A quantum of 0 selects
// DefaultShardWorkQuantum; a negative quantum disables the cap (full width,
// identical to Sharded).
func ShardedQuantum(pool ShardPool, quantum int64) Executor {
	if quantum == 0 {
		quantum = DefaultShardWorkQuantum
	}
	return &shardedExecutor{pool: pool, quantum: quantum, local: localExecutor{workers: 1}}
}

type shardedExecutor struct {
	pool ShardPool
	sess ShardSession
	// local is a one-engine local executor: it runs whole levels when no
	// shard is usable and slices whose remote routes all failed.
	local localExecutor
	// quantum is the estimated work per engaged worker (negative = no cap);
	// widthCap is derived from it against the run's cost during prepare.
	quantum  int64
	widthCap int
}

// sliceDone reports one slice's remote outcome; a non-nil err means every
// remote route failed and the slice must run locally.
type sliceDone struct {
	lo, hi int
	err    error
}

func (x *shardedExecutor) prepare(t *traversal) bool {
	if !t.buildSingles(runtime.GOMAXPROCS(0)) {
		return false
	}
	x.local.start(t)
	ctx := t.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if sess, err := x.pool.Open(ctx, t.tbl, t.cfg); err == nil {
		x.sess = sess
	}
	x.widthCap = shardWidthCap(EstimateCost(t.tbl.NumRows(), t.numAttrs, t.maxLevel), x.quantum)
	// A pool with no reachable worker leaves sess nil: the run proceeds
	// fully locally (degraded, not failed).
	return !t.abortedInto(&t.res.Stats)
}

func (x *shardedExecutor) close() {
	if x.sess != nil {
		x.sess.Close()
		x.sess = nil
	}
}

func (x *shardedExecutor) runLevel(t *traversal, cur, prev *lattice.Level) int {
	st := &t.res.Stats
	if t.abortedInto(st) {
		return 0
	}
	width := 0
	if x.sess != nil {
		width = min(x.sess.Width(), x.widthCap)
	}
	if width <= 0 {
		// No shard usable at all: run the level like the serial executor.
		return x.local.runLevel(t, cur, prev)
	}
	// Propagation needs the parents' final validity, so tasks are built
	// coordinator-side (cheap: bitmask unions), in node order.
	n := len(cur.Nodes)
	tasks := make([]NodeTask, n)
	results := make([]NodeResult, n)
	for i, node := range cur.Nodes {
		buildTask(&tasks[i], node, prev, t.numAttrs, t.cfg.Bidirectional)
	}

	// Per-slice RPC spans parent under the current level's span, so a trace
	// shows each slice's round trips (and worker-side spans) per level.
	//
	// The tasks handed to the session are wire copies: a task's pair-set
	// words alias its node's sets, and a straggler re-dispatch attempt can
	// still be encoding them after the slice's first answer wins and the
	// level commits (applyTask mutates the node's sets). The copy makes every
	// remote attempt read-only on stable memory; local fallback keeps using
	// the originals. Workers fold the context partitions they read from
	// their cached single-column partitions, so no partition ever rides the
	// wire.
	ctx := t.dispatchContext()
	done := make(chan sliceDone, width) // at most one send per slice: senders never block
	slices := 0
	for j := 0; j < width; j++ {
		lo, hi := sliceBounds(n, width, j)
		if lo == hi {
			continue
		}
		slices++
		wire := copyTaskWords(tasks[lo:hi])
		go func() {
			rs, err := x.sess.RunSlice(ctx, j, cur.Number, wire)
			if err == nil && len(rs) != hi-lo {
				err = fmt.Errorf("shard: slice %d returned %d results for %d tasks", j, len(rs), hi-lo)
			}
			if err == nil {
				copy(results[lo:hi], rs)
			}
			done <- sliceDone{lo: lo, hi: hi, err: err}
		}()
	}
	for ; slices > 0; slices-- {
		if d := <-done; d.err != nil {
			// Every remote route for this slice failed: run it here so the
			// job completes regardless.
			x.local.exec(tasks[d.lo:d.hi], results[d.lo:d.hi])
		}
	}
	// Apply in node order: applyTask is the single entry point for
	// results, so the report and the non-timing stats match Serial() byte
	// for byte whatever order the slices landed in.
	candidates := 0
	for i, node := range cur.Nodes {
		t.applyTask(node, &tasks[i], &results[i])
		candidates += results[i].Candidates
	}
	// Record a deadline/cancellation that landed after the last slice, so
	// the pipeline stops before generating the next level.
	t.abortedInto(st)
	return candidates
}

// copyTaskWords returns a copy of the tasks whose OCValid/OCValidDesc words
// no longer alias the nodes' pair sets, using one backing array per field
// across the slice. ParentConst is already per-task memory and is only read
// after build, so it is shared.
func copyTaskWords(tasks []NodeTask) []NodeTask {
	out := make([]NodeTask, len(tasks))
	copy(out, tasks)
	nValid, nDesc := 0, 0
	for i := range tasks {
		nValid += len(tasks[i].OCValid)
		nDesc += len(tasks[i].OCValidDesc)
	}
	valid := make([]uint64, 0, nValid)
	desc := make([]uint64, 0, nDesc)
	for i := range out {
		if w := tasks[i].OCValid; len(w) > 0 {
			valid = append(valid, w...)
			out[i].OCValid = valid[len(valid)-len(w):]
		}
		if w := tasks[i].OCValidDesc; len(w) > 0 {
			desc = append(desc, w...)
			out[i].OCValidDesc = desc[len(desc)-len(w):]
		}
	}
	return out
}

// dispatchContext is the context slice RPCs run under: the traversal's
// context, carrying the current level's span as trace parent.
func (t *traversal) dispatchContext() context.Context {
	ctx := t.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	return telemetry.NewContext(ctx, t.trace, t.levelSpan.ID())
}

// sliceBounds returns the [lo, hi) bounds of the shard-th of `width`
// contiguous near-equal slices over n tasks.
func sliceBounds(n, width, shard int) (int, int) {
	return shard * n / width, (shard + 1) * n / width
}

// shardWidthCap is ShardedQuantum's width policy: at most one engaged worker
// per `quantum` of estimated work, never fewer than one, uncapped for a
// non-positive quantum.
func shardWidthCap(cost, quantum int64) int {
	if quantum <= 0 {
		return int(^uint(0) >> 1)
	}
	cap := cost / quantum
	if cap < 1 {
		return 1
	}
	if cap > int64(^uint(0)>>1) {
		return int(^uint(0) >> 1)
	}
	return int(cap)
}
