package core

import (
	"context"
	"runtime"
	"sync"

	"aod/internal/dataset"
	"aod/internal/lattice"
	"aod/internal/partition"
	"aod/internal/validate"
)

// Serial returns the sequential executor: one engine processes every node of
// each level in order, accumulating directly into the run's result.
func Serial() Executor { return &serialExecutor{} }

type serialExecutor struct {
	eng *engine
}

func (s *serialExecutor) prepare(t *traversal) bool {
	s.eng = &engine{t: t, v: validate.New(), res: t.res}
	if !t.buildSingles(1) {
		return false
	}
	if t.cfg.UseSortedScan && t.cfg.Validator == ValidatorExact {
		t.orders = validate.NewTableOrders(t.tbl)
	}
	return true
}

func (s *serialExecutor) close() {}

// buildSingles materializes the per-attribute partitions, across `workers`
// goroutines when workers > 1. Cancellation is polled per column so an abort
// doesn't pay for the whole O(cols · rows) startup phase on large tables; it
// returns false when the run was aborted (some singles may be nil then — the
// caller must not touch them). Pre-injected singles (a warm Pipeline.Prepared
// start) short-circuit the build entirely.
func (t *traversal) buildSingles(workers int) bool {
	if t.singles != nil {
		return !t.abortedInto(&t.res.Stats)
	}
	t.singles = make([]*partition.Stripped, t.numAttrs)
	if workers <= 1 {
		for a := 0; a < t.numAttrs; a++ {
			if t.abortedInto(&t.res.Stats) {
				return false
			}
			t.singles[a] = partition.Single(t.tbl.Column(a))
		}
		return true
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for a := 0; a < t.numAttrs; a++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(a int) {
			defer wg.Done()
			defer func() { <-sem }()
			if t.ctx != nil && t.ctx.Err() != nil {
				return
			}
			t.singles[a] = partition.Single(t.tbl.Column(a))
		}(a)
	}
	wg.Wait()
	// Some singles may be nil after a cancellation; abort before anything
	// touches them.
	return !t.abortedInto(&t.res.Stats)
}

func (s *serialExecutor) runLevel(t *traversal, cur, prev, prev2 *lattice.Level) int {
	st := &t.res.Stats
	candidates := 0
	for _, node := range cur.Nodes {
		if s.eng.aborted() {
			return candidates
		}
		st.NodesProcessed++
		candidates += s.eng.processNode(node, prev, prev2)
	}
	// Record a deadline/cancellation that landed after the last node, so the
	// pipeline stops before generating the next level.
	s.eng.aborted()
	return candidates
}

// Pool returns the worker-pool executor: the nodes of each level fan out
// across `workers` goroutines (each owning a validator and scratch), and the
// per-node outputs are merged in node order, so the result is identical to
// the serial executor's. This is the shared-memory analogue of the
// distributed extension the paper lists as future work (after Saxena, Golab &
// Ilyas, PVLDB 2019 — reference [8]): nodes of a level are independent given
// the previous level's state, so they partition cleanly across workers.
// workers <= 0 selects GOMAXPROCS.
func Pool(workers int) Executor {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &poolExecutor{workers: workers}
}

type poolExecutor struct {
	workers int
	engines []*engine // one per worker, reused across levels
}

// nodeOut is one node's contribution, merged in node order to preserve the
// sequential deterministic result order.
type nodeOut struct {
	ocs        []OC
	ofds       []OFD
	candidates int
	stats      Stats
}

func (p *poolExecutor) prepare(t *traversal) bool {
	if !t.buildSingles(p.workers) {
		return false
	}
	p.engines = make([]*engine, p.workers)
	for i := range p.engines {
		p.engines[i] = &engine{t: t, v: validate.New()}
	}
	return true
}

func (p *poolExecutor) close() {}

func (p *poolExecutor) runLevel(t *traversal, cur, prev, prev2 *lattice.Level) int {
	st := &t.res.Stats
	if t.abortedInto(st) {
		return 0
	}
	// Validate candidates of all nodes concurrently. Each worker owns an
	// engine (validator + scratch) and materializes the context partitions
	// its candidates read on demand — the lattice's per-node guard builds
	// each once, so the pool builds exactly the serial executor's partitions.
	// Per-node outputs are merged in node order afterwards to preserve the
	// sequential result order.
	outs := make([]nodeOut, len(cur.Nodes))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for _, eng := range p.engines {
		wg.Add(1)
		go func(eng *engine) {
			defer wg.Done()
			for idx := range jobs {
				eng.res = &Result{}
				eng.res.Stats.OCsFoundPerLevel = make([]int, t.numAttrs+1)
				eng.res.Stats.OFDsFoundPerLevel = make([]int, t.numAttrs+1)
				eng.res.Stats.NodesProcessed = 1
				c := eng.processNode(cur.Nodes[idx], prev, prev2)
				outs[idx] = nodeOut{
					ocs:        eng.res.OCs,
					ofds:       eng.res.OFDs,
					candidates: c,
					stats:      eng.res.Stats,
				}
			}
		}(eng)
	}
	for idx := range cur.Nodes {
		jobs <- idx
	}
	close(jobs)
	wg.Wait()

	candidates := 0
	for i := range outs {
		o := &outs[i]
		t.res.OCs = append(t.res.OCs, o.ocs...)
		t.res.OFDs = append(t.res.OFDs, o.ofds...)
		candidates += o.candidates
		st.merge(&o.stats)
	}
	return candidates
}

// DiscoverParallel runs the same discovery as Discover but validates the
// candidates of each lattice level concurrently across a worker pool (the
// Pool executor on the shared pipeline). The result is identical to
// Discover's — the node-order merge re-establishes the sequential
// deterministic order; only wall-clock time differs. workers <= 0 selects
// GOMAXPROCS.
func DiscoverParallel(tbl *dataset.Table, cfg Config, workers int) (*Result, error) {
	return DiscoverParallelContext(context.Background(), tbl, cfg, workers)
}

// DiscoverParallelContext is DiscoverParallel with cooperative cancellation:
// every worker polls the context between candidate validations, so a
// canceled run frees its workers within one validation's latency. As in
// DiscoverContext, cancellation returns the partial result with
// Stats.Canceled set and a nil error.
func DiscoverParallelContext(ctx context.Context, tbl *dataset.Table, cfg Config, workers int) (*Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		return DiscoverContext(ctx, tbl, cfg)
	}
	return Pipeline{Executor: Pool(workers)}.Run(ctx, tbl, cfg)
}
