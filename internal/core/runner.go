package core

import (
	"context"
	"time"

	"aod/internal/dataset"
	"aod/internal/lattice"
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
// two-generation partition cache (tasks only carry attribute sets; context
// partitions are rebuilt by folding the prepared single-column partitions,
// memoized so sibling tasks and consecutive levels share the work, mirroring
// the coordinator's keep-two-levels policy). One runner serves one job's
// sequence of level slices; it is not safe for concurrent use.
type TaskRunner struct {
	t   *traversal
	eng *engine
	src *foldSource
}

// NewTaskRunner validates the configuration against the table and returns a
// runner for one job. Coordinator-owned policies are stripped: a worker never
// honors TimeLimit (the coordinator owns abort policy, via the RunLevel
// context) and never uses the sorted-scan route (its per-attribute order
// cache is coordinator-local, matching the pool executor's behavior).
func (p *PreparedTable) NewTaskRunner(cfg Config) (*TaskRunner, error) {
	if err := cfg.Validate(p.tbl.NumCols()); err != nil {
		return nil, err
	}
	cfg.TimeLimit = 0
	cfg.UseSortedScan = false
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
	r := &TaskRunner{t: t, eng: &engine{t: t, v: validate.New()}}
	r.src = &foldSource{r: r, memo: make(map[lattice.AttrSet]*partition.Stripped)}
	return r, nil
}

// PartitionCacheStats returns the runner's partition-cache hit and fresh
// build counts so far (hits include generation carry-overs).
func (r *TaskRunner) PartitionCacheStats() (hits, builds uint64) {
	return r.src.hits, r.src.builds
}

// RunLevel executes one slice of a lattice level in task order. The context
// bounds the work: when it is canceled (the coordinator gave up on this
// shard), the remaining tasks are skipped and the partial results are
// returned — the coordinator discards them and re-runs the slice elsewhere.
func (r *TaskRunner) RunLevel(ctx context.Context, tasks []NodeTask) []NodeResult {
	r.t.ctx = ctx
	r.src.rotate()
	out := make([]NodeResult, len(tasks))
	for i := range tasks {
		if ctx != nil && ctx.Err() != nil {
			break
		}
		r.eng.execTask(&tasks[i], r.src, &out[i])
	}
	return out
}

// foldSource resolves context partitions by folding single-attribute
// partitions, memoized across two level generations: the partitions built
// for level ℓ's tasks (contexts at ℓ−1 and ℓ−2, and the sets each was split
// from) hold the contexts and split bases that level ℓ+1's tasks read from
// the level below. Dead generations recycle into the runner's arena.
type foldSource struct {
	r          *TaskRunner
	memo, prev map[lattice.AttrSet]*partition.Stripped
	universe   *partition.Stripped
	// hits counts memoized (or generation-carried) partition lookups; builds
	// counts fresh arena splits — the worker's partition telemetry.
	hits, builds uint64
}

// rotate opens a new level generation: the current memo becomes the previous
// one, and the partitions of the dropped generation (not carried forward by
// lookups) return their buffers to the arena.
func (s *foldSource) rotate() {
	for _, p := range s.prev {
		s.r.t.arena.Recycle(p)
	}
	s.prev = s.memo
	s.memo = make(map[lattice.AttrSet]*partition.Stripped)
}

func (s *foldSource) partitionOf(set lattice.AttrSet, st *TaskStats) *partition.Stripped {
	switch set.Card() {
	case 0:
		if s.universe == nil {
			s.universe = partition.Universe(s.r.t.tbl.NumRows())
		}
		return s.universe
	case 1:
		return s.r.t.singles[set.Min()]
	}
	if p, ok := s.memo[set]; ok {
		s.hits++
		return p
	}
	if p, ok := s.prev[set]; ok {
		// Carry the partition into the live generation (and out of the next
		// rotation's recycle sweep).
		s.hits++
		s.memo[set] = p
		delete(s.prev, set)
		return p
	}
	// Replicate the lattice's construction exactly — Π_S splits the partition
	// missing the smallest attribute by that attribute, recursively — so the
	// resulting CSR class order (which validators' removal-set collection
	// observes) is identical to the coordinator's, not merely the same set
	// family.
	c1 := set.Min()
	base := s.partitionOf(set.Remove(c1), st)
	// Only the fresh split's own cost lands here; the recursive base charged
	// itself already.
	t0 := time.Now()
	p := s.r.t.arena.Split(base, s.r.t.tbl.Column(c1))
	st.PartitionTime += time.Since(t0)
	s.builds++
	s.memo[set] = p
	return p
}

func (s *foldSource) classIDsOf(set lattice.AttrSet) []int32 {
	// Only the sorted-scan exact route asks for class ids, and workers never
	// enable it (NewTaskRunner strips UseSortedScan).
	panic("core: classIDsOf on a shard worker (sorted-scan is coordinator-only)")
}
