package partition

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"aod/internal/dataset"
)

// Memo is the partition source of one level-wise traversal over a table:
// every executor's engines, a shard worker's task runner and the TANE
// profiler read context partitions from one. It resolves Π_S for an
// attribute set S — a bitmask over the table's columns — by splitting
// Π_{S∖{min S}} by the column min S, recursively down to the
// single-attribute partitions and the universe, and keeps each split. That
// one construction rule is what makes the CSR class order (which removal-set
// collection observes) the same wherever a candidate runs; SplitInto shows it
// equals the classic two-parent lattice product.
//
// Partitions are built lazily, on the first read: sets whose candidates are
// all pruned never pay for theirs. This is the mechanism the paper proposes
// for its Exp-5 claim that approximate discovery can be faster than exact
// discovery: AOCs/AOFDs are found at lower levels, validity state saturates
// sooner, and the engine stops early. Here approximate discovery still
// trails exact discovery, because each approximate candidate costs more to
// validate; the Exp-5 notes of aodbench (bench.Exp5) give the measured gap
// per candidate.
//
// A split that leaves every class of its base whole copies nothing: when
// min S is constant on every class of Π_{S∖{min S}} — the exact OFD
// (S∖{min S}): [] ↦ min S holds, so Π_S = Π_{S∖{min S}} — the set's slot
// holds its base's partition itself (Arena.Split). Such a split proves the
// dependency X → c, X = S∖{min S} and c = min S below every attribute of X,
// and the memo records it. From the next rotation on, a set S that holds c
// and a recorded X takes Π_{S∖{c}} itself, with no split and no scan. That
// is byte-identical to the split chain: the attributes of S above c include
// X, so their partition refines Π_X and c's step of S's chain divides no
// class, and every later step acts on the same bytes as in the chain of
// S∖{c}. Only dependencies the memo's own splits prove qualify: when a
// left-hand side reaches below c, Π_S and Π_{S∖{c}} may hold the same
// classes in another order, and aliasing them would reorder removal rows.
// Discovery now reads few such sets: it skips every candidate whose context
// holds an exact FD it has verified (package core's exact-FD rule), so only
// the exact FDs an approximate validator leaves unverified reach the memo.
// A 7,000 × 14 ncvoter exact job makes 383 splits, none of them a no-op,
// and no alias, where it made 1,221 aliases and 735 splits, 43 dividing no
// class, before that rule. Dependencies are facts about the table, so they
// survive rotations; only minimal left-hand sides are kept. They take
// effect at a rotation and not at once, so which sets a level builds, and
// how, never depends on the order concurrent readers reach them: a pool
// builds exactly what a serial run builds.
//
// Splits live in two generations that Rotate advances once per lattice
// level: a split read during the current or the previous level survives, and
// one left unread for a whole level returns its buffers to the arena, where
// the next level's splits reuse them. An aliased partition is marked shared
// instead, so the arena never takes it back — two slots may hold it, and the
// one that survives keeps reading it; it goes to the garbage collector once
// both are dropped. The universe and the single-attribute partitions are
// never dropped.
//
// Get and ClassIDs are safe for concurrent use: a built partition costs one
// map lookup under a short lock plus one atomic load, and a per-set lock
// makes concurrent first readers wait for one build instead of repeating it.
// Rotate must not run concurrently with them.
type Memo struct {
	tbl   *dataset.Table
	arena *Arena
	// universe and singles are the fixed slots of Π_∅ and Π_{a}.
	universe memoSlot
	singles  []memoSlot

	// mu guards the generation maps, the slot free list, the slab new slots
	// are carved from, hits, and the dependencies proved since the last
	// rotation.
	mu        sync.Mutex
	cur, prev map[uint64]*memoSlot
	free      []*memoSlot
	slab      []memoSlot
	proved    []learnedDep
	// hits counts lookups of multi-attribute sets that found their slot in
	// either generation; builds counts splits and aliases.
	hits   uint64
	builds atomic.Uint64
	// deps holds the dependencies learned up to the last rotation. Only
	// Rotate writes it, so builds read it without a lock.
	deps depStore
}

// learnedDep is an exact dependency lhs → rhs that a no-op split proved:
// every attribute of lhs lies above rhs.
type learnedDep struct {
	lhs uint64
	rhs int
}

// depStore holds learned dependencies by right-hand side: lhs[c] lists the
// minimal left-hand sides of the dependencies X → c, and bit c of rhs is
// set when there is one.
type depStore struct {
	rhs uint64
	lhs [][]uint64
}

// aliased returns the lowest attribute c of set with a learned dependency
// X → c, X ⊆ set, or -1 when there is none.
func (d *depStore) aliased(set uint64) int {
	for rest := set & d.rhs; rest != 0; rest &= rest - 1 {
		c := bits.TrailingZeros64(rest)
		for _, x := range d.lhs[c] {
			if x&^set == 0 {
				return c
			}
		}
	}
	return -1
}

// add records the dependency unless a known one implies it, and drops the
// known ones it implies, so only minimal left-hand sides stay.
func (d *depStore) add(dep learnedDep) {
	c, x := dep.rhs, dep.lhs
	if slices.ContainsFunc(d.lhs[c], func(y uint64) bool { return y&^x == 0 }) {
		return
	}
	d.lhs[c] = append(slices.DeleteFunc(d.lhs[c], func(y uint64) bool { return x&^y == 0 }), x)
	d.rhs |= 1 << uint(c)
}

// memoSlot holds one set's partition and, once asked for, its class ids.
// Both are built under mu and published atomically (ids by hasIDs). The ids
// buffer outlives its partition, so a reused slot refills it.
type memoSlot struct {
	part   atomic.Pointer[Stripped]
	mu     sync.Mutex
	hasIDs atomic.Bool
	ids    []int32
}

// NewMemo returns a memo over the table. singles[a], when given, is Π_{a};
// missing ones are built on first use. Splits draw their buffers from arena
// (a private one when nil).
func NewMemo(tbl *dataset.Table, singles []*Stripped, arena *Arena) *Memo {
	if arena == nil {
		arena = NewArena()
	}
	m := &Memo{
		tbl:     tbl,
		arena:   arena,
		singles: make([]memoSlot, tbl.NumCols()),
		cur:     make(map[uint64]*memoSlot),
		prev:    make(map[uint64]*memoSlot),
	}
	m.deps.lhs = make([][]uint64, tbl.NumCols())
	for a, p := range singles {
		if p != nil {
			m.singles[a].part.Store(p)
		}
	}
	return m
}

// Get returns Π_set, building it (and any split base it lacks) on first use.
// When spent is non-nil, the time of a build, or of waiting for another
// reader's build of the same set, is added to it; a built partition adds
// nothing.
func (m *Memo) Get(set uint64, spent *time.Duration) *Stripped {
	if spent == nil {
		return m.get(set)
	}
	s := m.slot(set)
	if p := s.part.Load(); p != nil {
		return p
	}
	t0 := time.Now()
	p := m.build(set, s)
	*spent += time.Since(t0)
	return p
}

// ClassIDs returns Π_set's per-row class ids (Stripped.ClassIDs), the input
// of the exact sorted-scan route. They are computed once per set and dropped
// with its partition. The slice must not be modified.
func (m *Memo) ClassIDs(set uint64) []int32 {
	s := m.slot(set)
	if s.hasIDs.Load() {
		return s.ids
	}
	p := s.part.Load()
	if p == nil {
		p = m.build(set, s)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.hasIDs.Load() {
		s.ids = p.classIDsInto(s.ids)
		s.hasIDs.Store(true)
	}
	return s.ids
}

// Rotate opens the next generation: partitions not read since the previous
// rotation return their buffers to the arena, the current generation
// becomes the previous one, and the dependencies proved since the previous
// rotation start aliasing sets.
func (m *Memo) Rotate() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, dep := range m.proved {
		m.deps.add(dep)
	}
	m.proved = m.proved[:0]
	for _, s := range m.prev {
		m.arena.Recycle(s.part.Swap(nil))
		s.hasIDs.Store(false)
		m.free = append(m.free, s)
	}
	clear(m.prev)
	m.prev, m.cur = m.cur, m.prev
}

// Stats returns the lookup hits (including carry-overs from the previous
// generation) and the multi-attribute partitions built so far, splits and
// aliases alike.
func (m *Memo) Stats() (hits, builds uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.builds.Load()
}

// slot returns the set's slot, carrying it into the current generation or
// opening an empty one.
func (m *Memo) slot(set uint64) *memoSlot {
	if set&(set-1) == 0 {
		if set == 0 {
			return &m.universe
		}
		return &m.singles[bits.TrailingZeros64(set)]
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.cur[set]; ok {
		m.hits++
		return s
	}
	s, ok := m.prev[set]
	if ok {
		m.hits++
		delete(m.prev, set)
	} else if n := len(m.free); n > 0 {
		s = m.free[n-1]
		m.free = m.free[:n-1]
	} else {
		if len(m.slab) == 0 {
			m.slab = make([]memoSlot, 64)
		}
		s = &m.slab[0]
		m.slab = m.slab[1:]
	}
	m.cur[set] = s
	return s
}

// build materializes the set's partition under its slot lock. Locks are
// taken from a set down to its split base or alias, a strict subset, never
// the other way, and the memo lock is never held while waiting for a slot,
// so builds cannot deadlock.
func (m *Memo) build(set uint64, s *memoSlot) *Stripped {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p := s.part.Load(); p != nil {
		return p
	}
	var p *Stripped
	switch {
	case set == 0:
		p = Universe(m.tbl.NumRows())
	case set&(set-1) == 0:
		p = Single(m.tbl.Column(bits.TrailingZeros64(set)))
	default:
		p = m.split(set)
		m.builds.Add(1)
	}
	s.part.Store(p)
	return p
}

// split resolves a multi-attribute set's partition. A learned X → c with
// X ⊆ set makes c's step of the set's split chain a no-op, so the set takes
// Π_{set∖{c}} itself; otherwise the set splits Π_{set∖{min set}} by min
// set, and a split that divides no class proves a dependency.
func (m *Memo) split(set uint64) *Stripped {
	if c := m.deps.aliased(set); c >= 0 {
		p := m.get(set &^ (1 << uint(c)))
		// Two slots now hold one partition. Shared, it is never recycled,
		// so neither slot's rotation can hand it to a split while the
		// other slot still serves it.
		p.Share()
		return p
	}
	c := bits.TrailingZeros64(set)
	rest := set &^ (1 << uint(c))
	base := m.get(rest)
	p := m.arena.Split(base, m.tbl.Column(c))
	if p == base {
		p.Share()
		m.mu.Lock()
		m.proved = append(m.proved, learnedDep{lhs: rest, rhs: c})
		m.mu.Unlock()
	}
	return p
}

// get is Get without timing.
func (m *Memo) get(set uint64) *Stripped {
	s := m.slot(set)
	if p := s.part.Load(); p != nil {
		return p
	}
	return m.build(set, s)
}
