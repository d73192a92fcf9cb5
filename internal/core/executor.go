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
// result, so per-node work allocates nothing.
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
// order. Context partitions come from the run's partition memo, which builds
// each one once however many engines read it.
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

func (l *localExecutor) runLevel(t *traversal, cur, prev *lattice.Level) int {
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
		done := l.exec(l.tasks[:len(nodes)], l.results[:len(nodes)])
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

// exec runs tasks[i] into results[i] on the engines. The engines claim
// indexes in order from a shared counter until the tasks run out or the run
// aborts. The tasks that ran form a prefix of tasks; exec returns its length.
func (l *localExecutor) exec(tasks []NodeTask, results []NodeResult) int {
	l.next.Store(0)
	if len(l.engines) == 1 || len(tasks) == 1 {
		l.work(l.engines[0], tasks, results)
	} else {
		var wg sync.WaitGroup
		for _, e := range l.engines[1:] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				l.work(e, tasks, results)
			}()
		}
		l.work(l.engines[0], tasks, results)
		wg.Wait()
	}
	return min(int(l.next.Load()), len(tasks))
}

// work is one engine's claim loop. Every claimed index below len(tasks) is
// executed (an abort cuts the task short, not the claim), which is what
// makes the executed tasks a prefix.
func (l *localExecutor) work(e *engine, tasks []NodeTask, results []NodeResult) {
	for !e.aborted() {
		i := int(l.next.Add(1)) - 1
		if i >= len(tasks) {
			return
		}
		e.execTask(&tasks[i], &results[i])
	}
}

// buildSingles materializes the per-attribute partitions, across `workers`
// goroutines when workers > 1, and opens the run's partition memo over them.
// Cancellation is polled per column so an abort doesn't pay for the whole
// O(cols · rows) startup phase on large tables; it returns false when the
// run was aborted. Pre-injected singles (a warm Pipeline.Prepared start)
// short-circuit the build entirely.
func (t *traversal) buildSingles(workers int) bool {
	if t.singles == nil {
		t.singles = make([]*partition.Stripped, t.numAttrs)
		var wg sync.WaitGroup
		sem := make(chan struct{}, max(workers, 1))
		for a := 0; a < t.numAttrs && !t.abortedInto(nil); a++ {
			if workers <= 1 {
				t.singles[a] = partition.Single(t.tbl.Column(a))
				continue
			}
			wg.Add(1)
			sem <- struct{}{}
			go func(a int) {
				defer wg.Done()
				defer func() { <-sem }()
				t.singles[a] = partition.Single(t.tbl.Column(a))
			}(a)
		}
		wg.Wait()
	}
	if t.abortedInto(&t.res.Stats) {
		return false
	}
	t.openMemo()
	return true
}

// openMemo puts the run's partitions behind one memo, the partition source of
// every engine, and, under the exact validator, opens the lazy per-attribute
// row orders of the sorted-scan route.
func (t *traversal) openMemo() {
	t.memo = partition.NewMemo(t.tbl, t.singles, t.arena)
	if t.cfg.Validator == ValidatorExact {
		t.orders = validate.NewTableOrders(t.tbl)
	}
}
