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
// the session or, last, executed locally by the coordinator.
//
// Dispatch is pipelined across levels: as a contiguous prefix of level N's
// slices lands and commits, the executor generates level N+1 (its structure
// depends only on N's node sets), builds tasks whose parents are all
// committed, and streams ready slices to workers whose slice of N has
// drained — so stragglers on level N overlap with N+1's validation instead
// of serializing the whole cluster on a per-level barrier. Results still
// commit strictly in node order through applyTask, so the pipelined schedule
// stays byte-identical to Serial ≡ Pool (the executor equivalence matrix is
// the contract).
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
	// pending carries the next level's prefetched state (tasks built so far,
	// pre-dispatched slices in flight) from one runLevel call into the next.
	pending *levelRun
}

// sliceSpan is the [lo, hi) task range of one shard's slice of a level.
type sliceSpan struct{ lo, hi int }

// sliceDone reports one slice's remote outcome; a non-nil err means every
// remote route failed and the slice must run locally.
type sliceDone struct {
	j   int
	err error
}

// levelRun is the dispatch state of one lattice level: its tasks, the frozen
// slice plan, and per-slice progress. A levelRun is created either at the top
// of runLevel or — the pipelined case — mid-way through the previous level,
// when it starts accumulating prefetched tasks and in-flight slices.
type levelRun struct {
	level      *lattice.Level
	tasks      []NodeTask
	results    []NodeResult
	built      int // tasks[:built] are built
	plan       []sliceSpan
	dispatched []bool
	done       []bool
	ch         chan sliceDone // buffered to len(plan): senders never block
	// maxParent[i] is the largest index in the parent level of any of node
	// i's parents; the node is buildable once the parent commit prefix
	// passes it. Computed only for prefetched runs.
	maxParent []int
}

func newLevelRun(level *lattice.Level, width int) *levelRun {
	n := len(level.Nodes)
	r := &levelRun{
		level:      level,
		tasks:      make([]NodeTask, n),
		results:    make([]NodeResult, n),
		plan:       make([]sliceSpan, width),
		dispatched: make([]bool, width),
		done:       make([]bool, width),
		ch:         make(chan sliceDone, width),
	}
	for j := range r.plan {
		lo, hi := sliceBounds(n, width, j)
		r.plan[j] = sliceSpan{lo, hi}
	}
	return r
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
	x.pending = nil
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
	// Adopt the previous level's prefetch for this level, if any. A stale
	// pending (from an aborted or different run) is simply dropped: its
	// in-flight goroutines drain into their own buffered channel.
	run := x.pending
	x.pending = nil
	if run != nil && run.level != cur {
		run = nil
	}
	if t.abortedInto(st) {
		return 0
	}
	width := 0
	if x.sess != nil {
		if width = x.sess.Width(); width > x.widthCap {
			width = x.widthCap
		}
	}
	if run == nil && width <= 0 {
		// No shard usable at all: run the level like the serial executor.
		return x.local.runLevel(t, cur, prev)
	}
	if run == nil {
		run = newLevelRun(cur, width)
	}
	// Propagation needs the parents' final validity, so tasks are built
	// coordinator-side (cheap: bitmask unions), in node order. prev is fully
	// committed by now, so every task the prefetch didn't reach is buildable.
	for ; run.built < len(cur.Nodes); run.built++ {
		buildTask(&run.tasks[run.built], cur.Nodes[run.built], prev, t.numAttrs, t.cfg.Bidirectional)
	}

	// Per-slice RPC spans parent under the current level's span, so a trace
	// shows each slice's round trips (and worker-side spans) per level —
	// pre-dispatched slices appear under the level that dispatched them.
	ctx := t.dispatchContext()
	remaining := 0
	for j, sp := range run.plan {
		if sp.lo == sp.hi {
			run.done[j] = true
			continue
		}
		if !run.dispatched[j] {
			run.dispatched[j] = true
			x.dispatch(ctx, run, j)
		}
		remaining++
	}

	// Commit slices in plan order as they land: applyTask is the single
	// entry point for results, so the report and the non-timing stats match
	// Serial() byte for byte regardless of arrival order. Each advance of
	// the commit prefix feeds the next level's prefetch.
	candidates, commit, committed := 0, 0, 0
	advance := func() {
		progressed := false
		for commit < len(run.plan) && run.done[commit] {
			sp := run.plan[commit]
			for i := sp.lo; i < sp.hi; i++ {
				t.applyTask(cur.Nodes[i], &run.tasks[i], &run.results[i])
				candidates += run.results[i].Candidates
			}
			committed = sp.hi
			commit++
			progressed = true
		}
		if progressed {
			x.maybePrefetch(t, cur, run, committed, candidates)
		}
	}
	advance() // empty slices may already unlock a commit prefix
	for remaining > 0 {
		d := <-run.ch
		if d.err != nil {
			// Every remote route for this slice failed (or the slice was
			// pre-dispatched into a dying session): run it here so the job
			// completes regardless. Its results are applied with the rest
			// of the level, in node order.
			sp := run.plan[d.j]
			x.local.exec(run.tasks[sp.lo:sp.hi], run.results[sp.lo:sp.hi])
		}
		run.done[d.j] = true
		remaining--
		advance()
	}
	// Record a deadline/cancellation that landed after the last slice, so
	// the pipeline stops before generating the next level.
	t.abortedInto(st)
	return candidates
}

// dispatch sends slice j of the run to the pool in the background, reporting
// the outcome on run.ch. Successful results are copied into the run's result
// slots before the outcome is published.
//
// The tasks handed to the session are wire copies: a task's pair-set words
// alias its node's sets, and a straggler re-dispatch attempt can still be
// encoding them after the slice's first answer wins and the node commits
// (applyTask mutates the node's sets). The copy makes every remote attempt
// read-only on stable memory; local fallback keeps using the originals.
// Workers fold the context partitions they read from their cached
// single-column partitions, so no partition ever rides the wire.
func (x *shardedExecutor) dispatch(ctx context.Context, run *levelRun, j int) {
	sp := run.plan[j]
	wire := copyTaskWords(run.tasks[sp.lo:sp.hi])
	go func() {
		rs, err := x.sess.RunSlice(ctx, j, run.level.Number, wire)
		if err == nil && len(rs) != sp.hi-sp.lo {
			err = fmt.Errorf("shard: slice %d returned %d results for %d tasks", j, len(rs), sp.hi-sp.lo)
		}
		if err == nil {
			copy(run.results[sp.lo:sp.hi], rs)
		}
		run.ch <- sliceDone{j: j, err: err}
	}()
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

// maybePrefetch pipelines the next level: once a contiguous prefix of cur is
// committed, the next level's structure is already known (lattice.NextLevel
// depends only on cur's node sets, not on validation outcomes), so tasks
// whose parents all lie in the committed prefix can be built, and fully built
// slices stream to workers whose slice of cur has drained — level N+1 starts
// while N's stragglers finish. The prefix gate is what keeps the pipelined
// schedule byte-identical: a task is never built before all of its parents
// hold their final post-apply validity.
func (x *shardedExecutor) maybePrefetch(t *traversal, cur *lattice.Level, run *levelRun, committed, candidates int) {
	if x.sess == nil {
		return
	}
	pend := x.pending
	if pend == nil {
		// Create the prefetch only when it can pay off: more levels to go,
		// and this level has already surfaced candidates (a candidate-free
		// level ends the run, making speculative work pure waste).
		if cur.Number >= t.maxLevel || candidates == 0 || committed == 0 || t.prefetchedNext != nil {
			return
		}
		next := lattice.NextLevel(cur, t.numAttrs)
		pend = newLevelRun(next, len(run.plan))
		pend.maxParent = maxParentIndexes(next, cur)
		// Hand the generated level to the pipeline loop: the pre-built tasks
		// alias these exact nodes, so the traversal must advance through this
		// object, not a freshly generated twin.
		t.prefetchedNext = next
		x.pending = pend
	}
	for pend.built < len(pend.level.Nodes) && pend.maxParent[pend.built] < committed {
		buildTask(&pend.tasks[pend.built], pend.level.Nodes[pend.built], cur, t.numAttrs, t.cfg.Bidirectional)
		pend.built++
	}
	ctx := t.dispatchContext()
	for j, sp := range pend.plan {
		if pend.dispatched[j] || sp.lo == sp.hi || sp.hi > pend.built {
			continue
		}
		// Slice j of the next level goes out only after slice j of cur
		// drained: the shard→worker mapping is stable, so that worker is the
		// idle one (stragglers keep their slice of cur in flight and are not
		// handed more work).
		if j >= len(run.done) || !run.done[j] {
			continue
		}
		pend.dispatched[j] = true
		x.dispatch(ctx, pend, j)
	}
}

// maxParentIndexes returns, per node of next, the largest index in cur.Nodes
// of any of its parents — the cur commit-prefix length past which the node's
// task can be built. Levels list their nodes in lexicographic order of their
// attribute lists, which makes these near-monotonic, so commit prefixes of
// cur unlock build prefixes of next.
func maxParentIndexes(next, cur *lattice.Level) []int {
	idx := make(map[lattice.AttrSet]int, len(cur.Nodes))
	for i, n := range cur.Nodes {
		idx[n.Set] = i
	}
	out := make([]int, len(next.Nodes))
	for i, n := range next.Nodes {
		maxIdx := -1
		n.Set.ForEach(func(c int) {
			if p, ok := idx[n.Set.Remove(c)]; ok && p > maxIdx {
				maxIdx = p
			}
		})
		out[i] = maxIdx
	}
	return out
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
