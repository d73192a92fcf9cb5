package core

import (
	"fmt"
	"math/bits"
	"time"

	"aod/internal/lattice"
	"aod/internal/validate"
)

// NodeTask is the serializable work unit of one lattice node: everything a
// validator needs to process the node's candidates without access to the
// coordinator's lattice. The coordinator performs validity-state propagation
// (which needs the whole previous level) when building the task; the task
// then carries only attribute sets and bitmasks — never partitions — so a
// level ships to a remote shard as a few hundred bytes per node while the
// worker rebuilds partitions from its locally cached single-column
// partitions. All fields are plain integers/slices with stable JSON names:
// the shard wire protocol marshals tasks directly.
type NodeTask struct {
	// Set is the node's attribute set as a bitmask.
	Set uint64 `json:"set"`
	// Level is |Set|.
	Level int `json:"level"`
	// ConstValid is the OFD validity propagated from the parents (the union
	// of ParentConst): attributes whose OFD is already valid in a strict
	// sub-context, pruning non-minimal OFD candidates here.
	ConstValid uint64 `json:"constValid"`
	// ParentConst holds each parent's ConstValid, indexed like Set's
	// attributes in ascending order: ParentConst[i] belongs to the parent
	// Set \ {i-th attribute}. The OC constancy pruning tests a specific
	// parent, not the union, so the per-parent masks ride along.
	ParentConst []uint64 `json:"parentConst"`
	// OCValid and OCValidDesc are the propagated pair-validity bitsets
	// (lattice.PairSet words): pairs with a valid OC in some sub-context,
	// pruning non-minimal OC candidates. In the local executors the slices
	// alias the node's own sets (zero copy); on the wire they serialize as
	// plain integers.
	OCValid     []uint64 `json:"ocValid,omitempty"`
	OCValidDesc []uint64 `json:"ocValidDesc,omitempty"`
	// FDContexts marks the attributes d whose OFD context Set\{d} holds an
	// exact FD (the node's lattice.Node.FDParents): that context's
	// partition equals a subset's, so a candidate one level down already
	// decided the OFD and the task skips it.
	FDContexts uint64 `json:"fdContexts,omitempty"`
	// ParentFDContexts holds each parent's FDContexts, indexed like
	// ParentConst: bit a of ParentFDContexts[j] marks that the OC context
	// Set\{a, j-th attribute} holds an exact FD, skipping the OCs over it.
	// Empty when no parent has such a bit.
	ParentFDContexts []uint64 `json:"parentFDContexts,omitempty"`
}

// check reports a task that does not fit a table of numAttrs columns: its
// set names a column outside the table, its level is not the set's size, or
// its per-parent words do not come one per attribute of the set. examine
// indexes the table by the set's attributes and ParentConst by their
// positions, so such a task would panic it.
func (t *NodeTask) check(numAttrs int) error {
	n := bits.OnesCount64(t.Set)
	switch {
	case t.Set>>uint(numAttrs) != 0:
		return fmt.Errorf("set %#x names a column outside the table's %d", t.Set, numAttrs)
	case t.Level != n:
		return fmt.Errorf("level %d for a set of %d attributes", t.Level, n)
	case len(t.ParentConst) != n:
		return fmt.Errorf("%d ParentConst words for a set of %d attributes", len(t.ParentConst), n)
	case len(t.ParentFDContexts) != 0 && len(t.ParentFDContexts) != n:
		return fmt.Errorf("%d ParentFDContexts words for a set of %d attributes", len(t.ParentFDContexts), n)
	}
	return nil
}

// TaskOC is one order compatibility verified while executing a task,
// identified by attribute indexes (the coordinator re-attaches context and
// score, which are functions of the task's set and level).
type TaskOC struct {
	A           int     `json:"a"`
	B           int     `json:"b"`
	Descending  bool    `json:"desc,omitempty"`
	Error       float64 `json:"error"`
	Removals    int     `json:"removals"`
	RemovalRows []int32 `json:"removalRows,omitempty"`
}

// TaskOFD is one order functional dependency verified while executing a
// task. Shipped only under Config.IncludeOFDs — NewConst carries the
// validity bits that drive pruning either way.
type TaskOFD struct {
	A           int     `json:"a"`
	Error       float64 `json:"error"`
	Removals    int     `json:"removals"`
	RemovalRows []int32 `json:"removalRows,omitempty"`
}

// TaskStats is the per-task fragment of the run statistics: the counters a
// task execution owns, independent of where it ran. Merged into the run's
// Stats by applyTask, so every executor — serial, pooled, sharded — accounts
// identically by construction.
type TaskStats struct {
	OCCandidates        int           `json:"ocCandidates,omitempty"`
	OFDCandidates       int           `json:"ofdCandidates,omitempty"`
	OCSkippedMinimality int           `json:"ocSkippedMinimality,omitempty"`
	OCSkippedConstancy  int           `json:"ocSkippedConstancy,omitempty"`
	OFDSkipped          int           `json:"ofdSkipped,omitempty"`
	OCSkippedFD         int           `json:"ocSkippedFD,omitempty"`
	OFDSkippedFD        int           `json:"ofdSkippedFD,omitempty"`
	ValidationTime      time.Duration `json:"validationNs,omitempty"`
	PartitionTime       time.Duration `json:"partitionNs,omitempty"`
}

// addTo folds the fragment into run-level stats.
func (ts *TaskStats) addTo(s *Stats) {
	s.OCCandidates += ts.OCCandidates
	s.OFDCandidates += ts.OFDCandidates
	s.OCSkippedMinimality += ts.OCSkippedMinimality
	s.OCSkippedConstancy += ts.OCSkippedConstancy
	s.OFDSkipped += ts.OFDSkipped
	s.OCSkippedFD += ts.OCSkippedFD
	s.OFDSkippedFD += ts.OFDSkippedFD
	s.ValidationTime += ts.ValidationTime
	s.PartitionTime += ts.PartitionTime
}

// NodeResult is the serializable outcome of executing one NodeTask: the
// verified dependencies in canonical in-node order, the new validity bits for
// downstream pruning, and the task's stats fragment. Applying results in
// node order reproduces the serial executor's result and (non-timing) stats
// exactly, wherever the tasks actually ran.
type NodeResult struct {
	// Candidates is the number of candidates validated (the early-stop
	// currency of the level-wise framework).
	Candidates int `json:"candidates"`
	// NewConst marks attributes whose OFD was verified valid at this node.
	NewConst uint64 `json:"newConst,omitempty"`
	// NewExact marks the attributes of NewConst whose OFD holds with zero
	// removals: exact FDs, which feed the node's ExactConst whatever
	// IncludeOFDs says.
	NewExact uint64    `json:"newExact,omitempty"`
	OCs      []TaskOC  `json:"ocs,omitempty"`
	OFDs     []TaskOFD `json:"ofds,omitempty"`
	Stats    TaskStats `json:"stats"`
}

// reset clears the result for reuse, keeping slice capacity — the local
// executors reuse their results across nodes and levels, so steady-state
// execution allocates nothing here.
func (nr *NodeResult) reset() {
	nr.Candidates = 0
	nr.NewConst = 0
	nr.NewExact = 0
	nr.OCs = nr.OCs[:0]
	nr.OFDs = nr.OFDs[:0]
	nr.Stats = TaskStats{}
}

// Candidate search directions: ascending only, or both under Bidirectional.
var (
	dirAsc  = [...]bool{false}
	dirBoth = [...]bool{false, true}
)

// buildTask propagates validity state from the parents into the node (the
// coordinator-side half of node processing, which needs the whole previous
// level) and captures the node's work unit in task, reusing its ParentConst
// and ParentFDContexts capacity; ParentFDContexts stays empty, allocating
// nothing, unless a parent has an FD context. The task's pair-set words alias
// the node's sets — free locally, copied only by serialization.
func buildTask(task *NodeTask, node *lattice.Node, parents *lattice.Level, numAttrs int, bidirectional bool) {
	if bidirectional && node.OCValidDesc == nil {
		node.OCValidDesc = lattice.NewPairSet(numAttrs)
	}
	*task = NodeTask{
		Set:              uint64(node.Set),
		Level:            node.Level,
		ParentConst:      append(task.ParentConst[:0], make([]uint64, node.Level)...),
		ParentFDContexts: task.ParentFDContexts[:0],
	}
	var propagated, exact, fdParents, anyParentFD lattice.AttrSet
	var parentFD [lattice.MaxAttrs]uint64
	i := 0
	node.Set.ForEach(func(c int) {
		if p := parents.Lookup(node.Set.Remove(c)); p != nil {
			task.ParentConst[i] = uint64(p.ConstValid)
			propagated = propagated.Union(p.ConstValid)
			exact = exact.Union(p.ExactConst)
			if p.ExactConst != 0 {
				fdParents = fdParents.Add(c)
			}
			parentFD[i] = uint64(p.FDParents)
			anyParentFD = anyParentFD.Union(p.FDParents)
			node.OCValid.UnionWith(p.OCValid)
			if node.OCValidDesc != nil && p.OCValidDesc != nil {
				node.OCValidDesc.UnionWith(p.OCValidDesc)
			}
		}
		i++
	})
	node.ConstValid = propagated
	node.ExactConst = exact
	node.FDParents = fdParents
	task.ConstValid = uint64(propagated)
	task.FDContexts = uint64(fdParents)
	if anyParentFD != 0 {
		task.ParentFDContexts = append(task.ParentFDContexts, parentFD[:node.Level]...)
	}
	task.OCValid = node.OCValid.Words()
	if node.OCValidDesc != nil {
		task.OCValidDesc = node.OCValidDesc.Words()
	}
}

// execTask examines all candidates hosted at the task's node — OFDs
// (Set\{D}): [] ↦ D for D ∈ Set, and OCs (Set\{A,B}): A ∼ B for pairs
// {A,B} ⊆ Set — reading pruning state from the task and writing verdicts
// into nr (reset first; callers that retain results across nodes pass a
// fresh one). It never mutates the task or any lattice state (each unordered
// pair and attribute is examined exactly once per node, so no candidate
// observes another's verdict within a node), which is what makes the work
// unit location-transparent: the same code runs under the serial executor,
// the pool workers, and a remote shard's TaskRunner.
//
// Pruning skips a candidate that is valid in a sub-context (minimality), an
// OC with a side constant in its context (constancy), and, checked last, a
// candidate whose context X holds an exact FD X\{c} → c (FDContexts and
// ParentFDContexts): there Π_X = Π_{X\{c}}, so the same candidate over
// X\{c}, one level down, has the same error. Had it held there, minimality
// or constancy would skip this one, so this one fails too (see the package
// comment). A candidate that pruning skips is still validated under the
// pruning ablation (DisablePruning), which measures its cost but keeps no
// verdict. Cancellation is polled right before each validation, never on a
// skipped candidate, so a task that starts after cancellation validates
// nothing, and a skipped candidate never reads its context partition.
//
// The clock is read when the task reaches its first candidate to validate
// and when it ends, and everything in between but the partition time the
// task charged counts as validation time. A task that validates nothing,
// as most nodes of wide flat levels do, reads no clock.
func (e *engine) execTask(task *NodeTask, nr *NodeResult) {
	nr.reset()
	var start time.Time
	e.examine(task, nr, &start)
	if !start.IsZero() {
		nr.Stats.ValidationTime = time.Since(start) - nr.Stats.PartitionTime
	}
}

// examine is execTask's candidate walk. It sets start when it reaches the
// first candidate to validate.
func (e *engine) examine(task *NodeTask, nr *NodeResult, start *time.Time) {
	st := &nr.Stats
	set := lattice.AttrSet(task.Set)
	propagatedConst := lattice.AttrSet(task.ConstValid)
	fdContexts := lattice.AttrSet(task.FDContexts)
	var buf [lattice.MaxAttrs]int
	attrs := set.AppendAttrs(buf[:0])

	// --- OFD candidates. -------------------------------------------------
	for _, d := range attrs {
		skip := true
		switch {
		case propagatedConst.Has(d):
			// A strict sub-context already has a valid OFD for d: any OFD
			// here is valid but non-minimal.
			st.OFDSkipped++
		case fdContexts.Has(d):
			// The context equals a subset's, where the OFD failed.
			st.OFDSkippedFD++
		default:
			skip = false
		}
		if skip && !e.t.cfg.DisablePruning {
			continue
		}
		if e.aborted() {
			return
		}
		if start.IsZero() {
			*start = time.Now()
		}
		ctx := e.context(set.Remove(d), st)
		st.OFDCandidates++
		nr.Candidates++
		r := e.validateOFD(ctx, e.t.tbl.Column(d))
		if skip || !r.Valid {
			continue
		}
		nr.NewConst |= 1 << uint(d)
		if r.Removals == 0 {
			nr.NewExact |= 1 << uint(d)
		}
		if e.t.cfg.IncludeOFDs {
			ofd := TaskOFD{A: d, Error: r.Error, Removals: r.Removals}
			if e.t.cfg.CollectRemovalSets {
				full := e.v.ApproxOFD(ctx, e.t.tbl.Column(d),
					validate.Options{Threshold: e.t.eps, CollectRemovals: true})
				ofd.RemovalRows = full.RemovalRows
			}
			nr.OFDs = append(nr.OFDs, ofd)
		}
	}

	// --- OC candidates (levels >= 2). -------------------------------------
	if task.Level < 2 {
		return
	}
	directions := dirAsc[:]
	if e.t.cfg.Bidirectional {
		directions = dirBoth[:]
	}
	for i := 0; i < len(attrs); i++ {
		for j := i + 1; j < len(attrs); j++ {
			a, b := attrs[i], attrs[j]
			for _, desc := range directions {
				validWords := task.OCValid
				if desc {
					validWords = task.OCValidDesc
				}
				skip := false
				if lattice.PairHas(validWords, a, b, e.t.numAttrs) {
					// Valid in a sub-context: non-minimal here and
					// everywhere above (minimality pruning).
					st.OCSkippedMinimality++
					skip = true
				} else if lattice.AttrSet(task.ParentConst[j]).Has(a) ||
					lattice.AttrSet(task.ParentConst[i]).Has(b) {
					// ParentConst[j] is the parent missing b (it contains
					// a), ParentConst[i] the parent missing a. Constancy of
					// a side within the OC's context (or a subset)
					// trivializes the OC in both directions (e_OC ≤ e_OFD);
					// never minimal.
					st.OCSkippedConstancy++
					skip = true
				} else if lattice.AttrSet(parentWord(task.ParentFDContexts, j)).Has(a) {
					// The context Set\{a,b} equals a subset's, where
					// the OC failed.
					st.OCSkippedFD++
					skip = true
				}
				if skip && !e.t.cfg.DisablePruning {
					continue
				}
				if e.aborted() {
					return
				}
				if start.IsZero() {
					*start = time.Now()
				}
				gpSet := set.Remove(a).Remove(b)
				ctx := e.context(gpSet, st)
				st.OCCandidates++
				nr.Candidates++
				r := e.validateOCVia(gpSet, ctx, a, b, desc)
				if skip || !r.Valid {
					continue
				}
				oc := TaskOC{A: a, B: b, Descending: desc, Error: r.Error, Removals: r.Removals}
				if e.t.cfg.CollectRemovalSets {
					oc.RemovalRows = e.collectOCRemovals(ctx, a, b, desc)
				}
				nr.OCs = append(nr.OCs, oc)
			}
		}
	}
}

// parentWord returns words[i], or 0 past the end: a task whose parents hold
// no FD context carries no ParentFDContexts words.
func parentWord(words []uint64, i int) uint64 {
	if i < len(words) {
		return words[i]
	}
	return 0
}

// applyTask folds a task's result into the node's validity state and the
// run's result and stats. Called in deterministic node order by every
// executor, it is the single place discovered dependencies enter a Result —
// which is why sharded, pooled, and serial runs are byte-identical.
func (t *traversal) applyTask(node *lattice.Node, task *NodeTask, nr *NodeResult) {
	st := &t.res.Stats
	st.NodesProcessed++
	nr.Stats.addTo(st)
	node.ConstValid = lattice.AttrSet(task.ConstValid | nr.NewConst)
	node.ExactConst |= lattice.AttrSet(nr.NewExact)
	st.OFDsFoundPerLevel[node.Level] += bits.OnesCount64(nr.NewConst)
	set := lattice.AttrSet(task.Set)
	for i := range nr.OFDs {
		w := &nr.OFDs[i]
		t.res.OFDs = append(t.res.OFDs, OFD{
			Context:     set.Remove(w.A),
			A:           w.A,
			Error:       w.Error,
			Removals:    w.Removals,
			Level:       node.Level,
			Score:       Score(node.Level-1, w.Error),
			RemovalRows: w.RemovalRows,
		})
	}
	for i := range nr.OCs {
		w := &nr.OCs[i]
		if w.Descending {
			node.OCValidDesc.Add(w.A, w.B)
		} else {
			node.OCValid.Add(w.A, w.B)
		}
		st.OCsFoundPerLevel[node.Level]++
		t.res.OCs = append(t.res.OCs, OC{
			Context:     set.Remove(w.A).Remove(w.B),
			A:           w.A,
			B:           w.B,
			Descending:  w.Descending,
			Error:       w.Error,
			Removals:    w.Removals,
			Level:       node.Level,
			Score:       Score(node.Level-2, w.Error),
			RemovalRows: w.RemovalRows,
		})
	}
}
