package core

import (
	"context"
	"time"

	"aod/internal/dataset"
	"aod/internal/lattice"
	"aod/internal/partition"
	"aod/internal/telemetry"
	"aod/internal/validate"
)

// Snapshot is the immutable picture of a running discovery delivered to a
// ProgressSink at each level boundary. The level-wise framework produces
// results level by level, and the set-based traversal makes every completed
// level a coherent result prefix: each snapshot's OCs/OFDs are exactly the
// minimal dependencies of the completed levels, never a torn mid-level view.
// All slices are copies — a sink may retain a Snapshot indefinitely.
type Snapshot struct {
	// Level is the lattice level that just completed.
	Level int
	// MaxLevel is the last level this run can reach (numAttrs, or the
	// Config.MaxLevel bound).
	MaxLevel int
	// Nodes is the number of lattice nodes in the completed level.
	Nodes int
	// Candidates is the number of candidates validated at this level — the
	// quantity whose reaching zero ends the traversal early.
	Candidates int
	// OCs and OFDs are the dependencies discovered so far, in discovery
	// order (copies; safe to retain and mutate).
	OCs  []OC
	OFDs []OFD
	// Stats is a deep copy of the run statistics so far.
	Stats Stats
	// NodesRemaining is the number of lattice nodes in the levels not yet
	// processed (an upper bound: early termination can skip them all).
	NodesRemaining int64
	// EstimatedRemaining estimates the remaining work as
	// rows × attrs × remaining levels — the cost currency the service's
	// size-aware job scheduler trades in.
	EstimatedRemaining int64
	// LevelTime is the wall-clock time the just-completed level took
	// (planning + validation + merging); LevelValidation and LevelPartition
	// are the slices of it spent inside validators and materializing
	// partitions — this level's deltas of the cumulative Stats counters.
	LevelTime       time.Duration
	LevelValidation time.Duration
	LevelPartition  time.Duration
	// Final marks the run's last snapshot: the traversal is about to return
	// (lattice exhausted, early-stopped, level bound reached, or aborted by
	// timeout/cancellation).
	Final bool
}

// ProgressSink receives one Snapshot per completed lattice level, called
// synchronously from the traversal (a slow sink slows discovery — copy and
// hand off if that matters). A nil sink disables progress reporting at zero
// cost.
type ProgressSink func(Snapshot)

// Executor is the pluggable validation stage of the Pipeline: it owns where
// the candidates of one lattice level are validated (in process by one or
// several engines, or across slices of the level on remote shards). Every
// executor builds the level's tasks in node order (buildTask), executes them
// (execTask) and applies the results in node order (applyTask); only where
// execTask runs differs, so every executor produces identical results and
// identical (non-timing) stats. Constructors: Serial, Pool, Sharded.
type Executor interface {
	// prepare builds the per-attribute partitions and any executor-owned
	// state before traversal. It returns false when the run was aborted
	// (deadline/cancellation), with the abort recorded in t's stats.
	prepare(t *traversal) bool
	// runLevel validates the candidates of every node in cur, accumulating
	// dependencies and stats into t.res in deterministic node order, and
	// returns the number of candidates validated.
	runLevel(t *traversal, cur, prev *lattice.Level) int
	// close releases executor-owned resources (e.g. a sharded executor's
	// worker session) when the run ends, normally or aborted.
	close()
}

// Pipeline is the unified level-wise traversal that Discover is a thin
// wrapper over: a planner (candidate generation, pruning, early termination —
// the loop in Run), a pluggable Executor, and an optional ProgressSink
// invoked at every level boundary. The zero value runs the serial executor
// with no sink.
type Pipeline struct {
	// Executor processes each level's candidates (nil = Serial()).
	Executor Executor
	// Sink, when non-nil, receives a Snapshot after every completed level;
	// the last snapshot of a run has Final set.
	Sink ProgressSink
	// Prepared, when non-nil and built for the run's exact table, supplies the
	// single-attribute partitions so the run skips the cold-start partitioning
	// phase entirely — the server's cross-job warm path. Its partitions are
	// shared (partition.Share), so concurrent runs may hold one PreparedTable.
	// A Prepared for a different table is ignored, not an error.
	Prepared *PreparedTable
	// Arena, when non-nil, replaces the run's private partition arena — the
	// server injects one bounded arena shared across jobs so steady-state
	// partition churn recycles instead of pressuring the GC.
	Arena *partition.Arena
}

// traversal is the shared state of one pipeline run: input, configuration,
// the partition memo shared by all executors' workers, deadline bookkeeping,
// and the accumulated result.
type traversal struct {
	ctx context.Context // nil means non-cancellable
	// done is ctx.Done(), read once per Pipeline.Run or TaskRunner.RunLevel
	// call (nil, never ready, when ctx is nil or cannot be canceled).
	done     <-chan struct{}
	tbl      *dataset.Table
	cfg      Config
	eps      float64
	numAttrs int
	maxLevel int
	// arena recycles the CSR buffers of the memo's dropped generations into
	// the next level's partition splits, keeping steady-state traversal
	// nearly allocation-free. It is concurrency-safe.
	arena   *partition.Arena
	singles []*partition.Stripped
	// memo builds and keeps every context partition the engines read (see
	// partition.Memo); it is opened over singles once they are built.
	memo *partition.Memo
	// orders are the per-attribute row orders of the exact sorted-scan
	// route (see takesScan); nil unless the validator is exact.
	orders   *validate.TableOrders
	start    time.Time
	deadline time.Time
	res      *Result

	// trace is the job's span trace (nil when the caller's context carries
	// none — every recording below is then a no-op). levelSpan is the span of
	// the level currently being validated; sharded executors parent their
	// per-slice RPC spans under it. lastValid/lastPart remember the
	// cumulative Stats counters at the previous level boundary so snapshots
	// report per-level deltas.
	trace     *telemetry.Trace
	traceRoot telemetry.SpanID
	levelSpan *telemetry.ActiveSpan
	lastValid time.Duration
	lastPart  time.Duration

	// prefetchedNext, when set by a pipelining executor (Sharded), is the
	// already-generated next level; Run advances through it instead of
	// generating a twin, because the executor's pre-built tasks alias its
	// nodes.
	prefetchedNext *lattice.Level
}

// abortedInto reports that the run must stop — the TimeLimit deadline passed
// or the caller's context was canceled — recording the cause in st unless st
// is nil. Engines poll it when they claim a task and right before each
// candidate they validate, not on candidates that pruning skips, so a
// canceled run validates no candidate once the context is done, and an abort
// takes effect within one validation's latency. The context half is a
// non-blocking receive on the cached done channel, which takes no lock.
// ctx.Err() on a cancelable context takes the context's mutex: called on
// every candidate, skipped ones included, it cost 8.7% of a serial job's CPU
// and 22% of a two-engine pool's, whose engines contend for that one lock
// (exact discovery on ncvoter 7000×14, 2-vCPU Xeon, Go 1.24).
func (t *traversal) abortedInto(st *Stats) bool {
	if !t.deadline.IsZero() && time.Now().After(t.deadline) {
		if st != nil {
			st.TimedOut = true
		}
		return true
	}
	select {
	case <-t.done:
		if st != nil {
			st.Canceled = true
		}
		return true
	default:
		return false
	}
}

// watch points the traversal's cancellation poll at ctx.
func (t *traversal) watch(ctx context.Context) {
	t.ctx = ctx
	t.done = nil
	if ctx != nil {
		t.done = ctx.Done()
	}
}

// snapshot builds the immutable per-level Snapshot for the just-completed
// level.
func (t *traversal) snapshot(lvl *lattice.Level, candidates int, levelTime time.Duration, final bool) Snapshot {
	st := t.res.Stats
	st.OCsFoundPerLevel = append([]int(nil), st.OCsFoundPerLevel...)
	st.OFDsFoundPerLevel = append([]int(nil), st.OFDsFoundPerLevel...)
	st.TotalTime = time.Since(t.start)
	remaining := t.maxLevel - lvl.Number
	if final {
		remaining = 0
	}
	levelValid := st.ValidationTime - t.lastValid
	levelPart := st.PartitionTime - t.lastPart
	t.lastValid, t.lastPart = st.ValidationTime, st.PartitionTime
	return Snapshot{
		Level:              lvl.Number,
		MaxLevel:           t.maxLevel,
		Nodes:              len(lvl.Nodes),
		Candidates:         candidates,
		OCs:                append([]OC(nil), t.res.OCs...),
		OFDs:               append([]OFD(nil), t.res.OFDs...),
		Stats:              st,
		NodesRemaining:     lattice.RemainingNodes(t.numAttrs, lvl.Number, t.maxLevel),
		EstimatedRemaining: EstimateCost(t.tbl.NumRows(), t.numAttrs, remaining),
		LevelTime:          levelTime,
		LevelValidation:    levelValid,
		LevelPartition:     levelPart,
		Final:              final,
	}
}

// EstimateCost is the scheduler's work estimate for traversing `levels` more
// lattice levels of a rows × attrs table. It is deliberately coarse — a
// priority, not a prediction: validation cost per level varies with pruning,
// but rows × attrs × remaining levels orders jobs well enough that small jobs
// stop starving behind large ones.
func EstimateCost(rows, attrs, levels int) int64 {
	if levels < 0 {
		levels = 0
	}
	return int64(rows) * int64(attrs) * int64(levels)
}

// Run executes the level-wise discovery framework over the table: generate
// level ℓ+1 from level ℓ, hand each level's candidate validation to the
// Executor, deliver a Snapshot per level boundary, and stop on lattice
// exhaustion, a candidate-free level (validity state is upward-closed, so a
// candidate-free level stays candidate-free at every deeper level — the early
// termination behind Exp-5), the MaxLevel bound, a TimeLimit, or context
// cancellation. Aborted runs return the partial result with
// Stats.TimedOut/Canceled set and a nil error.
func (p Pipeline) Run(ctx context.Context, tbl *dataset.Table, cfg Config) (*Result, error) {
	numAttrs := tbl.NumCols()
	if err := cfg.Validate(numAttrs); err != nil {
		return nil, err
	}
	exec := p.Executor
	if exec == nil {
		exec = Serial()
	}
	defer exec.close()
	maxLevel := numAttrs
	if cfg.MaxLevel > 0 && cfg.MaxLevel < maxLevel {
		maxLevel = cfg.MaxLevel
	}
	trace, traceParent := telemetry.FromContext(ctx)
	t := &traversal{
		tbl:      tbl,
		cfg:      cfg,
		eps:      cfg.effectiveThreshold(),
		numAttrs: numAttrs,
		maxLevel: maxLevel,
		arena:    partition.NewArena(),
		start:    time.Now(),
		res:      &Result{},
		trace:    trace,
	}
	t.watch(ctx)
	if p.Arena != nil {
		t.arena = p.Arena
	}
	if p.Prepared != nil && p.Prepared.tbl == tbl {
		// Warm start: adopt the cached singles; buildSingles becomes a no-op
		// and the "partition-build" span below records (near) zero time.
		t.singles = p.Prepared.singles
	}
	t.traceRoot = traceParent
	st := &t.res.Stats
	st.Rows = tbl.NumRows()
	st.Attrs = numAttrs
	st.OCsFoundPerLevel = make([]int, numAttrs+1)
	st.OFDsFoundPerLevel = make([]int, numAttrs+1)
	if cfg.TimeLimit > 0 {
		t.deadline = t.start.Add(cfg.TimeLimit)
	}

	// Startup: per-attribute partitions (and executor state). Abort polling
	// inside prepare keeps cancellation from paying for the whole
	// O(cols · rows log rows) partitioning phase on large tables.
	t0 := time.Now()
	prepSpan := trace.Start(traceParent, "partition-build")
	ok := exec.prepare(t)
	prepSpan.Attr("attrs", int64(numAttrs))
	prepSpan.End()
	st.PartitionTime += time.Since(t0)
	if !ok {
		st.TotalTime = time.Since(t.start)
		return t.res, nil
	}

	// Level 1's only parent, the empty set, carries no validity state.
	var prev *lattice.Level
	cur := lattice.Level1(numAttrs)
	for {
		st.LevelsProcessed++
		lvlStart := time.Now()
		// A new level reads contexts one and two levels down, so partitions
		// left unread for a whole level recycle into the arena here. No
		// engine reads the memo between levels, so the rotation needs no
		// guard.
		t.memo.Rotate()
		t.levelSpan = trace.Start(traceParent, "level")
		t.levelSpan.SetLabel("level %d", cur.Number)
		candidates := exec.runLevel(t, cur, prev)
		t.levelSpan.Attr("nodes", int64(len(cur.Nodes)))
		t.levelSpan.Attr("candidates", int64(candidates))
		t.levelSpan.End()
		levelTime := time.Since(lvlStart)
		aborted := st.TimedOut || st.Canceled
		if !aborted && candidates == 0 {
			st.EarlyStopped = cur.Number < maxLevel
		}
		last := aborted || candidates == 0 || cur.Number == maxLevel
		if p.Sink != nil {
			p.Sink(t.snapshot(cur, candidates, levelTime, last))
		}
		if last {
			break
		}
		next := t.prefetchedNext
		t.prefetchedNext = nil
		if next == nil {
			next = lattice.NextLevel(cur, numAttrs)
		}
		prev, cur = cur, next
	}
	st.TotalTime = time.Since(t.start)
	return t.res, nil
}
