// Package partition implements the equivalence-class machinery of Def. 2.8:
// stripped partitions (position-list indexes, PLIs) over attribute sets, the
// linear-time split that level-wise lattice traversal builds Π_S with (one
// parent partition refined by one column's ranks), and the TANE partition
// product it replaces (Huhtala et al. 1999, which the paper's framework
// builds on).
//
// A stripped partition omits singleton equivalence classes: a tuple alone in
// its class can participate in no split and no swap, so every validator in
// this repository is exact on stripped partitions.
//
// Partitions use a flat CSR (compressed-sparse-row) layout: one contiguous
// row buffer plus class offsets. Compared to a [][]int32 jagged layout this
// keeps every class of a partition in one cache-friendly allocation, lets
// SplitBy and Product write their output with two linear passes per class
// and zero per-class allocations, and lets an Arena recycle whole partitions
// between lattice levels.
package partition

import (
	"fmt"
	"sync/atomic"

	"aod/internal/dataset"
)

// Stripped is a stripped partition: the non-singleton equivalence classes of
// a table with respect to some attribute set, stored in CSR form. Class i
// occupies rows[offsets[i]:offsets[i+1]]; row ids within a class are in
// ascending order. Single and FromRowSignature order classes by first row id,
// but a split emits each parent class's subgroups in place (SplitInto), so
// its classes follow the parent's class order and only subgroups of one
// parent class are ordered by first row id: splitting classes [0 5 6 7]
// [1 2] [3 4] by a column whose rows 0–7 hold 0,5,5,7,7,1,0,1 yields
// [0 6] [5 7] [1 2] [3 4]. The zero value is a fully stripped (classless)
// partition of N rows.
type Stripped struct {
	// N is the number of rows of the underlying table.
	N int
	// rows holds the concatenated classes; offsets[i] is the start of class
	// i, with a final sentinel entry at len(rows). offsets is nil or has at
	// least one element.
	rows    []int32
	offsets []int32
	// shared is the sharing seam: once set (Share), the partition is
	// immutable — reset panics and Arena.Recycle refuses to reclaim the
	// buffers — so cache-resident partitions handed to concurrent jobs can
	// never be scribbled over by a later split. Accessed atomically.
	shared uint32
}

// Share marks p immutable for concurrent sharing: a shared partition can be
// read by any number of goroutines, but it can no longer be recycled into an
// arena or used as a product output buffer. Marking is one-way and
// idempotent; it returns p for chaining.
func (p *Stripped) Share() *Stripped {
	atomic.StoreUint32(&p.shared, 1)
	return p
}

// IsShared reports whether Share has marked p immutable.
func (p *Stripped) IsShared() bool { return atomic.LoadUint32(&p.shared) != 0 }

// MemBytes returns the retained heap footprint of the CSR buffers (capacity,
// not length — what the arena or a cache actually holds onto).
func (p *Stripped) MemBytes() int64 {
	return int64(cap(p.rows))*4 + int64(cap(p.offsets))*4
}

// NumClasses returns the number of non-singleton classes.
func (p *Stripped) NumClasses() int {
	if len(p.offsets) == 0 {
		return 0
	}
	return len(p.offsets) - 1
}

// Class returns the i-th class as a view into the shared row buffer. The
// slice must not be modified and is valid only as long as the partition is.
func (p *Stripped) Class(i int) []int32 {
	return p.rows[p.offsets[i]:p.offsets[i+1]]
}

// Size returns the total number of rows covered by non-singleton classes.
func (p *Stripped) Size() int { return len(p.rows) }

// TotalClasses returns the number of equivalence classes including the
// stripped singletons: |Π_X| of the unstripped partition.
func (p *Stripped) TotalClasses() int {
	return p.N - p.Size() + p.NumClasses()
}

// IsUnique reports whether every class is a singleton, i.e. the attribute set
// is a key for the instance.
func (p *Stripped) IsUnique() bool { return p.NumClasses() == 0 }

// String renders a compact summary for debugging.
func (p *Stripped) String() string {
	return fmt.Sprintf("Stripped(%d classes over %d/%d rows)", p.NumClasses(), p.Size(), p.N)
}

// reset prepares p to receive a partition over n rows with at most rowCap
// covered rows, reusing the existing buffers when large enough.
func (p *Stripped) reset(n, rowCap int) {
	if p.IsShared() {
		panic("partition: reuse of a shared partition as a product output")
	}
	p.N = n
	if cap(p.rows) < rowCap {
		p.rows = make([]int32, 0, rowCap)
	} else {
		p.rows = p.rows[:0]
	}
	classCap := rowCap/2 + 1
	if cap(p.offsets) < classCap {
		p.offsets = make([]int32, 1, classCap)
	} else {
		p.offsets = p.offsets[:1]
	}
	p.offsets[0] = 0
}

// appendClass appends one class (rows ascending) to the partition.
func (p *Stripped) appendClass(cls []int32) {
	if p.offsets == nil {
		p.offsets = append(p.offsets, 0)
	}
	p.rows = append(p.rows, cls...)
	p.offsets = append(p.offsets, int32(len(p.rows)))
}

// FromClasses builds a stripped partition of n rows from explicit classes
// (each ascending, ordered by first row id). Classes smaller than two rows
// are dropped. It is intended for tests and reference implementations.
func FromClasses(n int, classes [][]int32) *Stripped {
	p := &Stripped{N: n}
	for _, cls := range classes {
		if len(cls) >= 2 {
			p.appendClass(cls)
		}
	}
	return p
}

// Single builds the stripped partition of one rank-encoded column.
func Single(col *dataset.Column) *Stripped {
	n := col.Len()
	ranks := col.Ranks()
	nd := col.NumDistinct()
	counts := make([]int32, nd)
	for _, r := range ranks {
		counts[r]++
	}
	// Bucket rows by rank. Buckets are filled in ascending row order, so
	// bucket contents are ascending and the bucket's first element is the
	// rank's first-occurrence row.
	starts := make([]int32, nd)
	size, nc := 0, 0
	var off int32
	for r, c := range counts {
		starts[r] = off
		off += c
		if c >= 2 {
			size += int(c)
			nc++
		}
	}
	flat := make([]int32, n)
	next := append([]int32(nil), starts...)
	for i, r := range ranks {
		flat[next[r]] = int32(i)
		next[r]++
	}
	p := &Stripped{
		N:       n,
		rows:    make([]int32, 0, size),
		offsets: make([]int32, 1, nc+1),
	}
	// Emit buckets of size >= 2 in first-occurrence order: scanning rows in
	// ascending order and emitting a bucket exactly when its first row is
	// reached yields the deterministic layout without any sort.
	for i := 0; i < n; i++ {
		r := ranks[i]
		if counts[r] < 2 || flat[starts[r]] != int32(i) {
			continue
		}
		p.rows = append(p.rows, flat[starts[r]:starts[r]+counts[r]]...)
		p.offsets = append(p.offsets, int32(len(p.rows)))
	}
	return p
}

// FromRowSignature builds a stripped partition directly from an arbitrary
// per-row signature (rows with equal signatures share a class). It is used by
// tests and by brute-force reference implementations.
func FromRowSignature(sig []int64, n int) *Stripped {
	groups := make(map[int64][]int32)
	var order []int64
	for i := 0; i < n; i++ {
		if _, ok := groups[sig[i]]; !ok {
			order = append(order, sig[i])
		}
		groups[sig[i]] = append(groups[sig[i]], int32(i))
	}
	p := &Stripped{N: n}
	for _, k := range order {
		if g := groups[k]; len(g) >= 2 {
			p.appendClass(g)
		}
	}
	return p
}

// Product computes the stripped partition Π_{X∪Y} from Π_X = p and Π_Y =
// other. It is the convenience form of ProductInto: scratch comes from a
// shared pool and the result is freshly allocated (three allocations total).
// Discovery itself builds partitions with SplitBy, which needs one parent
// instead of two.
func (p *Stripped) Product(other *Stripped) *Stripped {
	s := defaultArena.GetScratch()
	out := &Stripped{}
	p.ProductInto(other, s, out)
	defaultArena.PutScratch(s)
	return out
}

// ProductInto computes the stripped partition Π_{X∪Y} into out in
// O(‖p‖ + ‖other‖) time with the TANE probe-table scheme: rows agreeing on
// both X and Y are exactly the rows sharing a p-class and an other-class.
// The probe is a flat row→class array (no map) and subgroups are assigned
// slots in first-occurrence order (no sort) — since rows within a class are
// ascending, first-occurrence order is exactly the deterministic
// first-row-id order of the [][]int32 era. With warm scratch and a
// previously used out, the call performs zero allocations. It returns out.
func (p *Stripped) ProductInto(other *Stripped, s *ProductScratch, out *Stripped) *Stripped {
	if p.N != other.N {
		panic(fmt.Sprintf("partition: product of partitions over %d and %d rows", p.N, other.N))
	}
	s.stamp(other)
	out.reset(p.N, len(p.rows))

	for ci := 0; ci+1 < len(p.offsets); ci++ {
		cls := p.rows[p.offsets[ci]:p.offsets[ci+1]]
		// Pass 1: assign each other-class touched by cls a subgroup slot in
		// first-occurrence order and count its rows.
		s.nextClass()
		numSub := 0
		for _, row := range cls {
			if s.rowStamp[row] != s.epoch {
				continue // singleton in other: singleton in the product
			}
			oc := s.otherOf[row]
			if s.subStamp[oc] != s.subGen {
				s.subStamp[oc] = s.subGen
				s.subOf[oc] = int32(numSub)
				if numSub < len(s.subCount) {
					s.subCount[numSub] = 0
				} else {
					s.subCount = append(s.subCount, 0)
					s.subStart = append(s.subStart, 0)
				}
				numSub++
			}
			s.subCount[s.subOf[oc]]++
		}
		// Lay out the surviving subgroups (size >= 2) in the output CSR.
		cur := int32(len(out.rows))
		emitted := false
		for sub := 0; sub < numSub; sub++ {
			if s.subCount[sub] >= 2 {
				s.subStart[sub] = cur
				cur += s.subCount[sub]
				out.offsets = append(out.offsets, cur)
				emitted = true
			} else {
				s.subStart[sub] = -1
			}
		}
		if !emitted {
			continue
		}
		// Pass 2: scatter rows to their subgroup slots. Rows are visited in
		// ascending order, so each subgroup stays ascending.
		out.rows = out.rows[:cur]
		for _, row := range cls {
			if s.rowStamp[row] != s.epoch {
				continue
			}
			sub := s.subOf[s.otherOf[row]]
			if at := s.subStart[sub]; at >= 0 {
				out.rows[at] = row
				s.subStart[sub] = at + 1
			}
		}
	}
	return out
}

// SplitBy computes Π_{X∪{c}} from p = Π_X and the rank-encoded column c. It
// is the convenience form of SplitInto: scratch comes from a shared pool and
// the result is freshly allocated.
func (p *Stripped) SplitBy(col *dataset.Column) *Stripped {
	s := defaultArena.GetScratch()
	out := &Stripped{}
	p.SplitInto(col, s, out)
	defaultArena.PutScratch(s)
	return out
}

// SplitInto computes Π_{X∪{c}} into out by splitting each class of p = Π_X
// by the ranks of column c, in O(‖p‖) time: rows of one p-class agreeing on
// c are exactly the rows agreeing on X∪{c}. Subgroups take slots in
// first-occurrence order and rows unique in their class are stripped, so for
// any Y ⊆ X∪{c} with c ∈ Y the output is byte-identical to
// p.ProductInto(Π_Y) — same classes, same rows, same order — without the
// pass that stamps Π_Y's classes onto rows. Building Π_S as
// Π_{S∖{c₁}}.SplitBy(c₁) therefore reproduces the classic two-parent lattice
// product Π_{S∖{c₁}}·Π_{S∖{c₂}} from one parent. With warm scratch and a
// previously used out, the call performs zero allocations. It returns out.
func (p *Stripped) SplitInto(col *dataset.Column, s *ProductScratch, out *Stripped) *Stripped {
	if p.N != col.Len() {
		panic(fmt.Sprintf("partition: split of a partition over %d rows by a column of %d", p.N, col.Len()))
	}
	ranks := col.Ranks()
	s.keySlots(col.NumDistinct())
	out.reset(p.N, len(p.rows))

	for ci := 0; ci+1 < len(p.offsets); ci++ {
		cls := p.rows[p.offsets[ci]:p.offsets[ci+1]]
		if len(cls) == 2 {
			// The commonest class deep in the lattice: it survives whole or
			// not at all.
			if ranks[cls[0]] == ranks[cls[1]] {
				out.rows = append(out.rows, cls[0], cls[1])
				out.offsets = append(out.offsets, int32(len(out.rows)))
			}
			continue
		}
		// Pass 1: give each rank in cls a subgroup slot in first-occurrence
		// order and count its rows.
		s.nextClass()
		numSub := 0
		for _, row := range cls {
			r := ranks[row]
			if s.subStamp[r] != s.subGen {
				s.subStamp[r] = s.subGen
				s.subOf[r] = int32(numSub)
				s.subCount[numSub] = 0
				numSub++
			}
			s.subCount[s.subOf[r]]++
		}
		// Lay out the surviving subgroups (size >= 2) in the output CSR.
		cur := int32(len(out.rows))
		emitted := false
		for sub := 0; sub < numSub; sub++ {
			if s.subCount[sub] >= 2 {
				s.subStart[sub] = cur
				cur += s.subCount[sub]
				out.offsets = append(out.offsets, cur)
				emitted = true
			} else {
				s.subStart[sub] = -1
			}
		}
		if !emitted {
			continue
		}
		// Pass 2: scatter rows to their subgroup slots in ascending order.
		out.rows = out.rows[:cur]
		for _, row := range cls {
			sub := s.subOf[ranks[row]]
			if at := s.subStart[sub]; at >= 0 {
				out.rows[at] = row
				s.subStart[sub] = at + 1
			}
		}
	}
	return out
}

// ClassIDs returns a per-row class identifier: rows in the i-th class map to
// int32(i); stripped (singleton) rows map to -1. The slice has length N.
func (p *Stripped) ClassIDs() []int32 { return p.classIDsInto(nil) }

// classIDsInto is ClassIDs writing into ids' buffer when it is large enough.
func (p *Stripped) classIDsInto(ids []int32) []int32 {
	if cap(ids) < p.N {
		ids = make([]int32, p.N)
	}
	ids = ids[:p.N]
	for i := range ids {
		ids[i] = -1
	}
	for ci := 0; ci+1 < len(p.offsets); ci++ {
		for _, row := range p.rows[p.offsets[ci]:p.offsets[ci+1]] {
			ids[row] = int32(ci)
		}
	}
	return ids
}

// Refines reports whether p refines q: every class of p is contained in a
// single class of q. The unstripped semantics are used (singletons refine
// everything). The per-row probe comes from the shared scratch pool, so the
// check allocates nothing in steady state.
func (p *Stripped) Refines(q *Stripped) bool {
	if p.N != q.N {
		return false
	}
	s := defaultArena.GetScratch()
	defer defaultArena.PutScratch(s)
	s.stamp(q)
	for ci := 0; ci+1 < len(p.offsets); ci++ {
		cls := p.rows[p.offsets[ci]:p.offsets[ci+1]]
		// All rows of cls must map to the same q class; a q-singleton can
		// cover at most one row, so any singleton in a class of size >= 2
		// falsifies refinement.
		if s.rowStamp[cls[0]] != s.epoch {
			return false
		}
		first := s.otherOf[cls[0]]
		for _, row := range cls[1:] {
			if s.rowStamp[row] != s.epoch || s.otherOf[row] != first {
				return false
			}
		}
	}
	return true
}

// Universe returns the trivial partition with a single class containing all n
// rows (the partition of the empty attribute set). For n < 2 the partition is
// fully stripped.
func Universe(n int) *Stripped {
	p := &Stripped{N: n}
	if n >= 2 {
		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
		}
		p.rows = all
		p.offsets = []int32{0, int32(n)}
	}
	return p
}
