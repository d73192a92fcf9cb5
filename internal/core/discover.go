package core

import (
	"context"

	"aod/internal/dataset"
	"aod/internal/lattice"
	"aod/internal/partition"
	"aod/internal/validate"
)

// Discover runs the level-wise discovery framework over the table and
// returns the complete, minimal set of verified dependencies under the
// configured validator and threshold (see the package comment for the exact
// semantics and caveats of the iterative validator). It is the serial
// Pipeline without cancellation; Pipeline.Run takes a context.
func Discover(tbl *dataset.Table, cfg Config) (*Result, error) {
	return Pipeline{}.Run(context.Background(), tbl, cfg)
}

// engine is the task-execution stage shared by every executor: it examines
// the candidates of one NodeTask, routing them through the configured
// validator and the axiom-based pruning. Engines are cheap; a pool executor
// owns one per worker (Validator scratch is not concurrency-safe), all
// sharing one traversal.
type engine struct {
	t *traversal
	v *validate.Validator
}

// aborted reports that the run must stop. It records nothing: engines may run
// concurrently, so the executors record the cause once per level.
func (e *engine) aborted() bool {
	return e.t.abortedInto(nil)
}

// columnB returns the B column in the requested direction.
func (e *engine) columnB(b int, desc bool) *dataset.Column {
	if desc {
		return e.t.tbl.Column(b).Reversed()
	}
	return e.t.tbl.Column(b)
}

func (e *engine) validateOFD(ctx *partition.Stripped, col *dataset.Column) validate.Result {
	if e.t.cfg.Validator == ValidatorExact {
		if validate.ExactOFD(ctx, col) {
			return validate.Result{Valid: true}
		}
		return validate.Result{Valid: false, Aborted: true}
	}
	return e.v.ApproxOFD(ctx, col, validate.Options{Threshold: e.t.eps})
}

// context returns the partition of the context set from the run's memo,
// charging a build (or the wait for another engine's build) to the task.
func (e *engine) context(set lattice.AttrSet, st *TaskStats) *partition.Stripped {
	return e.t.memo.Get(uint64(set), &st.PartitionTime)
}

// scanMinClassRows is the mean context-class size from which exact OC
// validation scans the table in the attribute's global order (ExactOCScan)
// instead of sorting each class. The scan costs O(|r|) per candidate,
// whatever the context covers, plus the context's class ids once per set;
// the sort costs O(‖ctx‖) plus a sort per class, cheap for small classes.
// Both routes were timed on every exact OC candidate of flight 20000×8,
// 2000×8 and 1000×18 and ncvoter 7000×14 and 10000×10, ascending and
// bidirectional (2-vCPU Xeon, Go 1.24). Against the sort, the scan cost
// 0.03–0.10× on contexts whose classes average ≥ 256 rows, 0.12–2.6× at
// 64–255 and 1.4–75× below 16. With this cut, exact-OC validation took
// 14.6 → 2.3 ms (flight 20000×8) and 16.9 → 9.1 ms (ncvoter 7000×14)
// against sorting every class; a cut of 128 or 256 saves up to 1.1 ms more
// on ncvoter and loses up to 2.0 ms on flight.
const scanMinClassRows = 64

// takesScan reports whether an exact OC candidate over the context takes
// the sorted-partition scan: its classes average at least scanMinClassRows
// rows and cover at least half the table, so the full-table walk is spent
// mostly on covered rows. A key context has no classes and stays on the
// sort, which then returns at once.
func takesScan(ctx *partition.Stripped) bool {
	classes := ctx.NumClasses()
	return classes > 0 && ctx.Size() >= scanMinClassRows*classes && 2*ctx.Size() >= ctx.N
}

// validateOCVia validates the OC candidate with context set gpSet (whose
// partition is ctx) over attributes a and b (B descending when desc),
// routing to the configured validator. An exact candidate whose context
// takesScan runs the sorted-partition scan of the set-based framework [9]
// over the context's class ids from the memo; either route gives the same
// verdict.
func (e *engine) validateOCVia(gpSet lattice.AttrSet, ctx *partition.Stripped, a, b int, desc bool) validate.Result {
	cb := e.columnB(b, desc)
	if e.t.orders != nil && takesScan(ctx) {
		ids := e.t.memo.ClassIDs(uint64(gpSet))
		ok, _ := e.v.ExactOCScan(ids, ctx.NumClasses(), e.t.orders.Order(a),
			e.t.tbl.Column(a), cb)
		return validate.Result{Valid: ok, Aborted: !ok}
	}
	return e.validateOC(ctx, e.t.tbl.Column(a), cb)
}

func (e *engine) validateOC(ctx *partition.Stripped, a, b *dataset.Column) validate.Result {
	switch e.t.cfg.Validator {
	case ValidatorExact:
		if ok, _ := e.v.ExactOC(ctx, a, b); ok {
			return validate.Result{Valid: true}
		}
		return validate.Result{Valid: false, Aborted: true}
	case ValidatorIterative:
		return e.v.IterativeAOC(ctx, a, b, validate.Options{Threshold: e.t.eps})
	default:
		return e.v.OptimalAOC(ctx, a, b, validate.Options{Threshold: e.t.eps})
	}
}

// collectOCRemovals re-validates a verified OC with removal collection. The
// optimal validator is used even under the iterative configuration — once a
// dependency is deemed valid, the minimal removal set is the useful artifact
// for repair.
func (e *engine) collectOCRemovals(ctx *partition.Stripped, a, b int, desc bool) []int32 {
	r := e.v.OptimalAOC(ctx, e.t.tbl.Column(a), e.columnB(b, desc),
		validate.Options{Threshold: 1, CollectRemovals: true})
	return r.RemovalRows
}
