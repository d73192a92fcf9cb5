package partition

import (
	"sync"

	"aod/internal/dataset"
)

// ProductScratch holds the reusable probe state of the partition kernels: a
// stamped row→class array replacing the map probe of the TANE product, and
// stamped per-key subgroup slots replacing the per-class sort (keys are
// other-classes for Product, column ranks for SplitBy). Stamps (epoch for
// rows, generation for subgroup slots) make resets O(1) instead of O(n).
// A zero ProductScratch is ready to use; it is not safe for concurrent use.
type ProductScratch struct {
	// otherOf[row] is the id of the other-class containing row, valid only
	// when rowStamp[row] == epoch (rows stripped from other stay stale).
	otherOf  []int32
	rowStamp []int32
	epoch    int32
	// subOf[key] is the subgroup slot assigned within the current p-class,
	// valid only when subStamp[key] == subGen.
	subOf    []int32
	subStamp []int32
	subGen   int32
	// subCount and subStart hold per-slot row counts and write cursors.
	subCount []int32
	subStart []int32
}

// stamp loads the probe table for q: after the call, rows covered by q have
// otherOf set to their q-class id under the fresh epoch.
func (s *ProductScratch) stamp(q *Stripped) {
	n := q.N
	if cap(s.otherOf) < n {
		s.otherOf = make([]int32, n)
		s.rowStamp = make([]int32, n)
		s.epoch = 0
	}
	s.otherOf = s.otherOf[:n]
	s.rowStamp = s.rowStamp[:n]
	s.epoch++
	if s.epoch <= 0 { // wrapped: hard reset over the full capacity
		clear(s.rowStamp[:cap(s.rowStamp)])
		s.epoch = 1
	}
	nc := q.NumClasses()
	if cap(s.subOf) < nc {
		s.subOf = make([]int32, nc)
		s.subStamp = make([]int32, nc)
		s.subGen = 0
	}
	s.subOf = s.subOf[:nc]
	s.subStamp = s.subStamp[:nc]
	for ci := 0; ci+1 < len(q.offsets); ci++ {
		for _, row := range q.rows[q.offsets[ci]:q.offsets[ci+1]] {
			s.otherOf[row] = int32(ci)
			s.rowStamp[row] = s.epoch
		}
	}
}

// keySlots sizes the subgroup probe for keys in [0, n) and the per-slot
// counters for up to n subgroups. A split keys subgroups by column rank, so
// it needs one slot per distinct value — which may exceed the partition's
// row count.
func (s *ProductScratch) keySlots(n int) {
	if cap(s.subOf) < n {
		s.subOf = make([]int32, n)
		s.subStamp = make([]int32, n)
		s.subGen = 0
	}
	s.subOf = s.subOf[:n]
	s.subStamp = s.subStamp[:n]
	if len(s.subCount) < n {
		s.subCount = make([]int32, n)
		s.subStart = make([]int32, n)
	}
}

// nextClass opens a fresh subgroup generation for the next p-class.
func (s *ProductScratch) nextClass() {
	s.subGen++
	if s.subGen <= 0 { // wrapped: hard reset over the full capacity
		clear(s.subStamp[:cap(s.subStamp)])
		s.subGen = 1
	}
}

// Arena recycles partition buffers and split scratch across calls. The
// discovery engine holds one arena per run: the partitions its Memo drops
// return their CSR buffers to the arena and the next level's splits reuse
// them, so steady-state traversal allocates nearly nothing.
// An Arena is safe for concurrent use (the parallel engine's workers share
// one); the zero value is ready to use.
//
// An arena built with NewArenaLimit is additionally size-capped: instead of
// the GC-emptied sync.Pool it keeps an exact-accounted LIFO free list, so a
// server-level arena shared across jobs holds at most maxBytes of retained
// partition buffers and sheds the rest to the garbage collector.
type Arena struct {
	parts   sync.Pool
	scratch sync.Pool

	// Bounded mode (limit > 0): mu guards the free list and its byte count.
	limit     int64
	mu        sync.Mutex
	free      []*Stripped
	freeBytes int64
	dropped   uint64
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// NewArenaLimit returns an arena whose retained partition buffers never
// exceed maxBytes; Recycle calls past the cap drop the partition instead.
// maxBytes <= 0 degenerates to an unbounded NewArena.
func NewArenaLimit(maxBytes int64) *Arena {
	if maxBytes < 0 {
		maxBytes = 0
	}
	return &Arena{limit: maxBytes}
}

// Split computes p.SplitBy(col) into a partition drawn from the arena, using
// pooled scratch: SplitInto's output, byte for byte, and never p itself,
// even when col divides no class of p. A split result must be returned with
// Recycle once unreferenced for the arena to reuse its buffers.
func (a *Arena) Split(p *Stripped, col *dataset.Column) *Stripped {
	s := a.GetScratch()
	out := p.SplitInto(col, s, a.GetStripped())
	a.PutScratch(s)
	return out
}

// GetStripped returns a recycled (or fresh) partition whose buffers are
// reused by SplitInto or ProductInto.
func (a *Arena) GetStripped() *Stripped {
	if a.limit > 0 {
		a.mu.Lock()
		if n := len(a.free); n > 0 {
			p := a.free[n-1]
			a.free[n-1] = nil
			a.free = a.free[:n-1]
			a.freeBytes -= p.MemBytes()
			a.mu.Unlock()
			return p
		}
		a.mu.Unlock()
		return &Stripped{}
	}
	if v := a.parts.Get(); v != nil {
		return v.(*Stripped)
	}
	return &Stripped{}
}

// Recycle returns a partition to the arena. The caller must not use p (or
// any Class view into it) afterwards. Shared partitions (Share) are never
// reclaimed — other jobs may still be reading them — and a bounded arena
// drops partitions that would push it past its byte cap.
func (a *Arena) Recycle(p *Stripped) {
	if p == nil || p.IsShared() {
		return
	}
	if a.limit > 0 {
		b := p.MemBytes()
		a.mu.Lock()
		if a.freeBytes+b > a.limit {
			a.dropped++
			a.mu.Unlock()
			return
		}
		a.free = append(a.free, p)
		a.freeBytes += b
		a.mu.Unlock()
		return
	}
	a.parts.Put(p)
}

// RetainedBytes reports the bytes currently held on a bounded arena's free
// list (always 0 for an unbounded arena, whose sync.Pool is GC-managed).
func (a *Arena) RetainedBytes() int64 {
	if a.limit == 0 {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.freeBytes
}

// GetScratch returns a recycled (or fresh) split/product scratch.
func (a *Arena) GetScratch() *ProductScratch {
	if v := a.scratch.Get(); v != nil {
		return v.(*ProductScratch)
	}
	return &ProductScratch{}
}

// PutScratch returns scratch to the arena.
func (a *Arena) PutScratch(s *ProductScratch) {
	if s != nil {
		a.scratch.Put(s)
	}
}

// defaultArena backs the convenience Product and Refines entry points.
var defaultArena Arena
