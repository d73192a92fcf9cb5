package partition

import (
	"math/bits"
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
// Every split is a fresh partition that no other slot holds, so a slot's
// rotation may recycle it. A set X that holds an exact FD X∖{c} → c has the
// classes of Π_{X∖{c}}, and the memo splits it all the same: the lattice
// owns that knowledge and skips every candidate whose context holds an exact
// FD it has verified (package core's exact-FD rule), so discovery seldom
// reads such a set.
//
// Splits live in two generations that Rotate advances once per lattice
// level: a split read during the current or the previous level survives, and
// one left unread for a whole level returns its buffers to the arena, where
// the next level's splits reuse them. The universe and the single-attribute
// partitions are never dropped.
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
	// are carved from, and hits.
	mu        sync.Mutex
	cur, prev map[uint64]*memoSlot
	free      []*memoSlot
	slab      []memoSlot
	// hits counts lookups of multi-attribute sets that found their slot in
	// either generation; builds counts splits.
	hits   uint64
	builds atomic.Uint64
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
// rotation return their buffers to the arena, and the current generation
// becomes the previous one.
func (m *Memo) Rotate() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, s := range m.prev {
		m.arena.Recycle(s.part.Swap(nil))
		s.hasIDs.Store(false)
		m.free = append(m.free, s)
	}
	clear(m.prev)
	m.prev, m.cur = m.cur, m.prev
}

// Stats returns the lookup hits (including carry-overs from the previous
// generation) and the multi-attribute partitions split so far.
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

// build materializes the set's partition under its slot lock: a
// multi-attribute set splits Π_{set∖{min set}} by min set. Locks are taken
// from a set down to its split base, a strict subset, never the other way,
// and the memo lock is never held while waiting for a slot, so builds cannot
// deadlock.
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
		c := bits.TrailingZeros64(set)
		p = m.arena.Split(m.get(set&^(1<<uint(c))), m.tbl.Column(c))
		m.builds.Add(1)
	}
	s.part.Store(p)
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
