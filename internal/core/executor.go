package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"aod/internal/lattice"
	"aod/internal/partition"
	"aod/internal/validate"
)

// Serial returns the sequential executor: one engine builds, executes and
// applies the nodes of each level one at a time, reusing a single task and
// result, so per-node work allocates nothing. It is the only executor that
// honours Config.UseSortedScan.
func Serial() Executor { return &localExecutor{workers: 1} }

// Pool returns the worker-pool executor: each level's tasks are built in node
// order, executed by `workers` engines (each owning a validator and scratch)
// that claim task indexes from a shared counter, and applied in node order,
// so the result is identical to the serial executor's. This is the
// shared-memory analogue of the distributed extension the paper lists as
// future work (after Saxena, Golab & Ilyas, PVLDB 2019 — reference [8]):
// nodes of a level are independent given the previous level's state, so they
// partition cleanly across workers. workers <= 0 selects GOMAXPROCS; Pool(1)
// is Serial().
func Pool(workers int) Executor {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &localExecutor{workers: workers}
}

// localExecutor runs levels in process through the task path every executor
// shares: buildTask in node order, execTask on the engines, applyTask in node
// order. Context partitions resolve through the lattice (levelSource), whose
// per-node guard builds each one once however many engines read it.
type localExecutor struct {
	workers int
	engines []*engine
	// tasks and results are reused across nodes and levels: one slot each
	// for a single engine, a level's worth for several.
	tasks   []NodeTask
	results []NodeResult
	// next is the index of the next unclaimed task of the running exec call.
	next atomic.Int64
}

func (l *localExecutor) prepare(t *traversal) bool {
	if !t.buildSingles(l.workers) {
		return false
	}
	// The sorted-scan route caches class ids on lattice nodes without a
	// guard, so only a single engine may take it.
	if l.workers == 1 && t.cfg.UseSortedScan && t.cfg.Validator == ValidatorExact {
		t.orders = validate.NewTableOrders(t.tbl)
	}
	l.start(t)
	return true
}

// start gives every worker an engine over the run.
func (l *localExecutor) start(t *traversal) {
	l.engines = make([]*engine, l.workers)
	for i := range l.engines {
		l.engines[i] = &engine{t: t, v: validate.New()}
	}
}

func (l *localExecutor) close() {}

func (l *localExecutor) runLevel(t *traversal, cur, prev, prev2 *lattice.Level) int {
	src := &levelSource{t: t, parents: prev, grandparents: prev2}
	step := len(cur.Nodes)
	if len(l.engines) == 1 {
		step = 1
	}
	for len(l.tasks) < step {
		l.tasks = append(l.tasks, NodeTask{})
		l.results = append(l.results, NodeResult{})
	}
	candidates := 0
	for lo := 0; lo < len(cur.Nodes); lo += step {
		nodes := cur.Nodes[lo:min(lo+step, len(cur.Nodes))]
		for i, node := range nodes {
			buildTask(&l.tasks[i], node, prev, t.numAttrs, t.cfg.Bidirectional)
		}
		done := l.exec(src, l.tasks[:len(nodes)], l.results[:len(nodes)])
		for i := 0; i < done; i++ {
			t.applyTask(nodes[i], &l.tasks[i], &l.results[i])
			candidates += l.results[i].Candidates
		}
		if done < len(nodes) {
			break
		}
	}
	// Record a deadline/cancellation that landed during the level, so the
	// pipeline stops before generating the next one.
	t.abortedInto(&t.res.Stats)
	return candidates
}

// exec runs tasks[i] into results[i] on the engines, resolving context
// partitions through src. The engines claim indexes in order from a shared
// counter until the tasks run out or the run aborts. The tasks that ran form
// a prefix of tasks; exec returns its length.
func (l *localExecutor) exec(src *levelSource, tasks []NodeTask, results []NodeResult) int {
	l.next.Store(0)
	if len(l.engines) == 1 || len(tasks) == 1 {
		l.work(l.engines[0], src, tasks, results)
	} else {
		var wg sync.WaitGroup
		for _, e := range l.engines[1:] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				l.work(e, src, tasks, results)
			}()
		}
		l.work(l.engines[0], src, tasks, results)
		wg.Wait()
	}
	return min(int(l.next.Load()), len(tasks))
}

// work is one engine's claim loop. Every claimed index below len(tasks) is
// executed (an abort cuts the task short, not the claim), which is what
// makes the executed tasks a prefix.
func (l *localExecutor) work(e *engine, src *levelSource, tasks []NodeTask, results []NodeResult) {
	for !e.aborted() {
		i := int(l.next.Add(1)) - 1
		if i >= len(tasks) {
			return
		}
		e.execTask(&tasks[i], src, &results[i])
	}
}

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
