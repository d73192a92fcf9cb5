package core

import (
	"context"
	"fmt"
	"time"

	"aod/internal/dataset"
	"aod/internal/partition"
	"aod/internal/validate"
)

// PreparedTable binds a table to its single-attribute partitions, built once
// and immutable afterwards — the per-dataset state a shard worker caches by
// content fingerprint so that repeated jobs over the same dataset never pay
// the cold-start partitioning again. A PreparedTable may be shared by any
// number of concurrent TaskRunners.
type PreparedTable struct {
	tbl     *dataset.Table
	singles []*partition.Stripped
}

// Prepare builds the per-attribute partitions for the table. The partitions
// are marked shared (partition.Share): arenas refuse to reclaim their
// buffers, so one PreparedTable is safe to hand to any number of concurrent
// jobs — the server's cross-job partition cache depends on this.
func Prepare(tbl *dataset.Table) *PreparedTable {
	singles := make([]*partition.Stripped, tbl.NumCols())
	for a := range singles {
		singles[a] = partition.Single(tbl.Column(a)).Share()
	}
	return &PreparedTable{tbl: tbl, singles: singles}
}

// Table returns the underlying table.
func (p *PreparedTable) Table() *dataset.Table { return p.tbl }

// MemBytes reports the retained partition-buffer bytes of the prepared
// singles — the accounting currency of the server's bounded partition cache.
func (p *PreparedTable) MemBytes() int64 {
	var b int64
	for _, s := range p.singles {
		b += s.MemBytes()
	}
	return b
}

// TaskRunner executes NodeTasks against a prepared table — the worker-side
// counterpart of the executors. It owns a validator, an arena, and a
// partition memo over the prepared single-column partitions (tasks only carry
// attribute sets), rotated once per level slice like the coordinator's, so
// sibling tasks and consecutive levels share the work. One runner serves one
// job's sequence of level slices; it is not safe for concurrent use.
type TaskRunner struct {
	t   *traversal
	eng *engine
}

// NewTaskRunner validates the configuration against the table and returns a
// runner for one job. A runner sets no deadline, so it ignores TimeLimit: the
// coordinator owns abort policy, via the RunLevel context.
func (p *PreparedTable) NewTaskRunner(cfg Config) (*TaskRunner, error) {
	if err := cfg.Validate(p.tbl.NumCols()); err != nil {
		return nil, err
	}
	t := &traversal{
		tbl:      p.tbl,
		cfg:      cfg,
		eps:      cfg.effectiveThreshold(),
		numAttrs: p.tbl.NumCols(),
		maxLevel: p.tbl.NumCols(),
		arena:    partition.NewArena(),
		singles:  p.singles,
		start:    time.Now(),
	}
	t.openMemo()
	return &TaskRunner{t: t, eng: &engine{t: t, v: validate.New()}}, nil
}

// PartitionCacheStats returns the runner's partition-memo hit and build
// counts so far (hits include generation carry-overs; builds count splits).
func (r *TaskRunner) PartitionCacheStats() (hits, builds uint64) {
	return r.t.memo.Stats()
}

// RunLevel executes one slice of a lattice level in task order. The context
// bounds the work: when it is canceled (the coordinator gave up on this
// shard), the remaining tasks are skipped and the partial results are
// returned — the coordinator discards them and re-runs the slice elsewhere.
// Tasks arrive from another process, so a slice holding a task that does not
// fit the table (NodeTask.check) is refused whole with an error, and the
// runner's state is left as it was.
func (r *TaskRunner) RunLevel(ctx context.Context, tasks []NodeTask) ([]NodeResult, error) {
	for i := range tasks {
		if err := tasks[i].check(r.t.numAttrs); err != nil {
			return nil, fmt.Errorf("task %d: %w", i, err)
		}
	}
	r.t.watch(ctx)
	r.t.memo.Rotate()
	out := make([]NodeResult, len(tasks))
	for i := range tasks {
		if r.eng.aborted() {
			break
		}
		r.eng.execTask(&tasks[i], &out[i])
	}
	return out, nil
}
