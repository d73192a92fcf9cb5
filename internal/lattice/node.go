package lattice

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"aod/internal/dataset"
	"aod/internal/partition"
)

// Node is one attribute set in the lattice, together with the validity state
// that drives pruning:
//
//   - ConstValid: attributes D ∈ Set such that the approximate OFD
//     (Set\{D}): [] ↦ D is valid (error ≤ ε). It is complete — propagation by
//     monotonicity plus on-node validation covers every D — which is what
//     lets superset nodes prune both non-minimal OFDs and constancy-trivial
//     OCs exactly.
//   - OCValid: unordered pairs {A,B} ⊆ Set such that the approximate OC
//     Y: A ∼ B is valid for some context Y ⊆ Set\{A,B}.
//
// Partitions are materialized lazily (see Partition): nodes whose subtree
// never validates anything never pay the partition cost. This is the
// mechanism the paper proposes for its Exp-5 claim that approximate
// discovery can be faster than exact discovery: AOCs/AOFDs are found at
// lower levels, validity state saturates sooner, and the engine stops
// early. Here approximate discovery still trails exact discovery, because
// each approximate candidate costs more to validate; the Exp-5 notes of
// aodbench (bench.Exp5) give the measured gap per candidate.
type Node struct {
	// Set is the attribute set of this node.
	Set AttrSet
	// Level is |Set|.
	Level int
	// ConstValid marks attrs with a valid OFD in context Set\{attr}.
	ConstValid AttrSet
	// OCValid marks pairs with a valid OC in some context ⊆ Set\pair.
	OCValid *PairSet
	// OCValidDesc is the bidirectional analogue: pairs {A,B} with a valid
	// mixed-direction OC (A ascending, B descending) in some sub-context.
	// Allocated only when bidirectional discovery is enabled.
	OCValidDesc *PairSet

	// part is the stripped partition Π_Set once built: loaded atomically on
	// the fast path, stored under mu so concurrent readers build it once.
	part atomic.Pointer[partition.Stripped]
	mu   sync.Mutex
	// classIDs caches part.ClassIDs() for sorted-scan validation (serial
	// executor only; not guarded).
	classIDs []int32
	// parent is the generating parent Set\{min Set} (nil for levels 0 and
	// 1): Π_Set splits each class of Π_parent by the ranks of min Set.
	parent *Node
}

// ClassIDs returns (and caches) the per-row class ids of the node's
// partition, materializing the partition if needed. Unlike Partition it is
// not safe for concurrent use.
func (n *Node) ClassIDs(a *partition.Arena, tbl *dataset.Table) []int32 {
	if n.classIDs == nil {
		n.classIDs = n.Partition(a, tbl).ClassIDs()
	}
	return n.classIDs
}

// Partition returns Π_Set, materializing it on first use by splitting the
// generating parent's partition (itself materialized the same way, down to
// the single-attribute partitions of level 1) by the ranks of the node's
// smallest attribute. The splits draw their CSR buffers and scratch from a,
// so a traversal that releases exhausted levels into the same arena
// materializes new levels with near-zero allocations; a nil arena falls back
// to plain allocation.
//
// Partition is safe for concurrent use: a built partition is read with one
// atomic load, and a per-node lock makes concurrent first readers wait for
// one build instead of repeating it. Locks are taken child before parent, so
// they cannot deadlock. ReleasePartition must not run concurrently with it.
func (n *Node) Partition(a *partition.Arena, tbl *dataset.Table) *partition.Stripped {
	if p := n.part.Load(); p != nil {
		return p
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if p := n.part.Load(); p != nil {
		return p
	}
	base := n.parent.Partition(a, tbl)
	col := tbl.Column(n.Set.Min())
	var p *partition.Stripped
	if a == nil {
		p = base.SplitBy(col)
	} else {
		p = a.Split(base, col)
	}
	n.part.Store(p)
	return p
}

// HasPartition reports whether the partition is currently materialized.
func (n *Node) HasPartition() bool { return n.part.Load() != nil }

// ReleasePartition frees the materialized partition (and cached class ids)
// to bound memory; both are re-materialized if needed later. A split
// partition's buffers are recycled into a when it is non-nil — the caller
// must guarantee no live references remain. Levels 0 and 1 keep their
// universe and single-attribute partitions, which every level above is
// built from.
func (n *Node) ReleasePartition(a *partition.Arena) {
	if n.Level < 2 {
		return
	}
	if p := n.part.Swap(nil); p != nil && a != nil {
		a.Recycle(p)
	}
	n.classIDs = nil
}

// Level0 builds the level-0 lattice: the single empty-set node whose
// partition is the universe partition (one class with all rows).
func Level0(numRows, numAttrs int) *Level {
	n := &Node{
		Set:     0,
		Level:   0,
		OCValid: NewPairSet(numAttrs),
	}
	n.part.Store(partition.Universe(numRows))
	return &Level{Number: 0, Nodes: []*Node{n}, bySet: map[AttrSet]*Node{0: n}}
}

// Level is one stratum of the lattice: all nodes whose sets share a
// cardinality.
type Level struct {
	// Number is the cardinality of the node sets in this level.
	Number int
	// Nodes in deterministic (ascending bitmask) order.
	Nodes []*Node
	bySet map[AttrSet]*Node
}

// Lookup returns the node for the given set, or nil.
func (l *Level) Lookup(s AttrSet) *Node {
	if l == nil {
		return nil
	}
	return l.bySet[s]
}

// Level1 builds the level-1 lattice from the per-attribute partitions.
func Level1(singles []*partition.Stripped) *Level {
	numAttrs := len(singles)
	lvl := &Level{Number: 1, bySet: make(map[AttrSet]*Node, numAttrs)}
	for a := 0; a < numAttrs; a++ {
		n := &Node{
			Set:     NewAttrSet(a),
			Level:   1,
			OCValid: NewPairSet(numAttrs),
		}
		n.part.Store(singles[a])
		lvl.Nodes = append(lvl.Nodes, n)
		lvl.bySet[n.Set] = n
	}
	return lvl
}

// RemainingNodes returns the number of lattice nodes in levels
// (fromLevel, maxLevel] — the sum of binomial coefficients C(numAttrs, k) for
// fromLevel < k ≤ maxLevel. Traversal snapshots use it as an upper bound on
// the nodes a running discovery may still visit (early termination can skip
// them all). The running product never overflows for numAttrs ≤ 64: the
// largest term C(64, 32) ≈ 1.8e18 fits an int64, and the sum saturates at
// MaxInt64 rather than wrapping.
func RemainingNodes(numAttrs, fromLevel, maxLevel int) int64 {
	if maxLevel > numAttrs {
		maxLevel = numAttrs
	}
	var total int64
	for k := fromLevel + 1; k <= maxLevel; k++ {
		c := binomial(numAttrs, k)
		if total > (1<<63-1)-c {
			return 1<<63 - 1
		}
		total += c
	}
	return total
}

// binomial computes C(n, k) with the multiplicative formula for n ≤ 64. Each
// prefix value is itself a binomial C(n-k+i, i) and so fits int64 (the
// largest, C(64, 32) ≈ 1.8e18, does), but the undivided product c·(n-k+i)
// does not — C(63, 31)·64 ≈ 5.9e19 — so the multiply-then-divide step runs
// through a 128-bit intermediate.
func binomial(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	c := uint64(1)
	for i := 1; i <= k; i++ {
		hi, lo := bits.Mul64(c, uint64(n-k+i))
		// Exact division: hi < i because the quotient C(n-k+i, i) fits 64
		// bits, so Div64 cannot panic.
		c, _ = bits.Div64(hi, lo, uint64(i))
	}
	return int64(c)
}

// NextLevel generates level ℓ+1 from level ℓ: every set S with |S| = ℓ+1 is
// produced exactly once by extending the node of S \ {max attr} with an
// attribute larger than its maximum; the generating parent whose partition
// Π_S is split from is S\{c1} for the smallest attr c1 of S (it exists in
// level ℓ because levels are generated exhaustively). Partitions are NOT
// computed here; see Node.Partition.
func NextLevel(cur *Level, numAttrs int) *Level {
	next := &Level{Number: cur.Number + 1, bySet: make(map[AttrSet]*Node)}
	for _, n := range cur.Nodes {
		for c := n.Set.Max() + 1; c < numAttrs; c++ {
			s := n.Set.Add(c)
			child := &Node{
				Set:     s,
				Level:   next.Number,
				OCValid: NewPairSet(numAttrs),
				parent:  cur.bySet[s.Remove(s.Min())],
			}
			next.Nodes = append(next.Nodes, child)
			next.bySet[s] = child
		}
	}
	return next
}
