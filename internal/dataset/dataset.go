// Package dataset provides the relational substrate for order-dependency
// discovery: typed tables whose columns are rank-encoded in an
// order-preserving way, so that every downstream algorithm (partitioning,
// swap detection, LNDS-based validation) can operate on dense int32 ranks
// instead of raw values.
//
// A Table is immutable after construction. Columns are built from typed Go
// slices or parsed from CSV (see csv.go); in both cases the raw values of a
// column are mapped to ranks 0..d-1 such that rank(u) < rank(v) iff u < v
// under the column's natural order (numeric for ints/floats, lexicographic
// for strings). Ties in raw values map to equal ranks, which preserves both
// the equality structure (needed for partitions and splits) and the order
// structure (needed for swaps).
package dataset

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
)

// Kind identifies the logical type of a column.
type Kind int

const (
	// KindInt is a 64-bit signed integer column.
	KindInt Kind = iota
	// KindFloat is a float64 column. NaNs order before all other values.
	KindFloat
	// KindString is a string column ordered lexicographically (byte-wise).
	KindString
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// KindFromString parses a kind name produced by Kind.String.
func KindFromString(s string) (Kind, error) {
	switch s {
	case "int":
		return KindInt, nil
	case "float":
		return KindFloat, nil
	case "string":
		return KindString, nil
	default:
		return 0, fmt.Errorf("dataset: unknown column type %q (want int, float, or string)", s)
	}
}

// Column is a single rank-encoded attribute of a Table.
//
// Ranks are dense: they cover exactly 0..NumDistinct-1. The original values
// are retained (in rank order) so results can be rendered for humans; they
// are not consulted by any algorithm.
type Column struct {
	name     string
	kind     Kind
	ranks    []int32
	distinct int
	// valueAt renders the raw value for a given rank (for display only).
	intVals    []int64
	floatVals  []float64
	stringVals []string
	// reversed caches the descending view (see Reversed). It is the only
	// mutable word in a Column, and it is atomic so that concurrent readers
	// sharing one table (e.g. parallel discovery jobs over a registered
	// dataset) may race to initialize it safely.
	reversed atomic.Pointer[Column]
}

// Name returns the column name.
func (c *Column) Name() string { return c.name }

// Kind returns the column's logical type.
func (c *Column) Kind() Kind { return c.kind }

// Ranks returns the order-preserving rank encoding of the column. The caller
// must not modify the returned slice.
func (c *Column) Ranks() []int32 { return c.ranks }

// Rank returns the rank of the value in the given row.
func (c *Column) Rank(row int) int32 { return c.ranks[row] }

// NumDistinct returns the number of distinct values in the column.
func (c *Column) NumDistinct() int { return c.distinct }

// Len returns the number of rows.
func (c *Column) Len() int { return len(c.ranks) }

// ValueString renders the raw value at the given row for display.
func (c *Column) ValueString(row int) string {
	return c.rankValueString(c.ranks[row])
}

func (c *Column) rankValueString(r int32) string {
	switch c.kind {
	case KindInt:
		return fmt.Sprintf("%d", c.intVals[r])
	case KindFloat:
		return fmt.Sprintf("%g", c.floatVals[r])
	default:
		return c.stringVals[r]
	}
}

// Reversed returns (and caches) the descending view of the column: the same
// values with ranks flipped (rank' = NumDistinct−1−rank), so that ascending
// order of the view is descending order of the original. It is the device
// behind bidirectional order compatibilities (after Szlichta et al., VLDBJ
// 2018): every validator works unchanged on the reversed view. The view's
// name carries a "↓" suffix for display.
//
// Reversed is safe for concurrent use: losers of the initialization race
// discard their build and adopt the published view, so double reversal is
// always pointer-identical to the original.
func (c *Column) Reversed() *Column {
	if r := c.reversed.Load(); r != nil {
		return r
	}
	d := int32(c.distinct)
	ranks := make([]int32, len(c.ranks))
	for i, r := range c.ranks {
		ranks[i] = d - 1 - r
	}
	rev := &Column{
		name:     c.name + "↓",
		kind:     c.kind,
		ranks:    ranks,
		distinct: c.distinct,
	}
	switch c.kind {
	case KindInt:
		rev.intVals = reverseCopy(c.intVals)
	case KindFloat:
		rev.floatVals = reverseCopy(c.floatVals)
	default:
		rev.stringVals = reverseCopy(c.stringVals)
	}
	rev.reversed.Store(c) // double reversal returns the original
	if !c.reversed.CompareAndSwap(nil, rev) {
		return c.reversed.Load()
	}
	return rev
}

func reverseCopy[T any](in []T) []T {
	out := make([]T, len(in))
	for i, v := range in {
		out[len(in)-1-i] = v
	}
	return out
}

// Table is an immutable relational instance: a list of equal-length columns.
type Table struct {
	cols   []*Column
	byName map[string]int
	rows   int
}

// NumRows returns the number of tuples in the table.
func (t *Table) NumRows() int { return t.rows }

// NumCols returns the number of attributes in the table.
func (t *Table) NumCols() int { return len(t.cols) }

// Column returns the i-th column.
func (t *Table) Column(i int) *Column { return t.cols[i] }

// ColumnIndex returns the index of the named column, or -1 if absent.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.byName[name]; ok {
		return i
	}
	return -1
}

// ColumnNames returns the names of all columns in order.
func (t *Table) ColumnNames() []string {
	names := make([]string, len(t.cols))
	for i, c := range t.cols {
		names[i] = c.name
	}
	return names
}

// ColumnTypes returns the kind names ("int", "float", "string") of all
// columns in order. Feeding them back through CSVOptions.Types makes a
// WriteCSV → ReadCSV round trip reconstruct the table exactly (equal
// Fingerprint), where type re-inference could diverge — e.g. a float column
// whose values all happen to be integral would re-infer as int.
func (t *Table) ColumnTypes() []string {
	types := make([]string, len(t.cols))
	for i, c := range t.cols {
		types[i] = c.kind.String()
	}
	return types
}

// Freeze eagerly materializes every column's lazily-cached descending view,
// after which no code path writes to the table or its columns again — the
// hard immutability guarantee a registry needs before sharing one *Table
// across concurrent discovery jobs. (Reversed is independently race-safe via
// its atomic cache; Freeze additionally removes the allocation from the
// discovery hot path and future-proofs against non-atomic lazy state.)
// It returns the table for chaining.
func (t *Table) Freeze() *Table {
	for _, c := range t.cols {
		c.Reversed()
	}
	return t
}

// Select returns a new Table containing only the named columns, in the given
// order. Column data is shared, not copied.
func (t *Table) Select(names ...string) (*Table, error) {
	cols := make([]*Column, 0, len(names))
	for _, n := range names {
		i := t.ColumnIndex(n)
		if i < 0 {
			return nil, fmt.Errorf("dataset: no column %q", n)
		}
		cols = append(cols, t.cols[i])
	}
	return fromColumns(cols)
}

// SelectIndexes returns a new Table with the columns at the given indexes.
// Column data is shared, not copied.
func (t *Table) SelectIndexes(idx ...int) (*Table, error) {
	cols := make([]*Column, 0, len(idx))
	for _, i := range idx {
		if i < 0 || i >= len(t.cols) {
			return nil, fmt.Errorf("dataset: column index %d out of range [0,%d)", i, len(t.cols))
		}
		cols = append(cols, t.cols[i])
	}
	return fromColumns(cols)
}

// Head returns a new Table restricted to the first n rows (or all rows if
// n >= NumRows). Ranks are re-encoded densely for the prefix.
func (t *Table) Head(n int) *Table {
	if n >= t.rows {
		return t
	}
	if n < 0 {
		n = 0
	}
	b := NewBuilder()
	for _, c := range t.cols {
		sub := reencode(c.ranks[:n])
		nc := &Column{name: c.name, kind: c.kind, ranks: sub.ranks, distinct: sub.distinct}
		// Remap display values for the surviving ranks.
		switch c.kind {
		case KindInt:
			nc.intVals = make([]int64, sub.distinct)
			for old, neu := range sub.rankMap {
				if neu >= 0 {
					nc.intVals[neu] = c.intVals[old]
				}
			}
		case KindFloat:
			nc.floatVals = make([]float64, sub.distinct)
			for old, neu := range sub.rankMap {
				if neu >= 0 {
					nc.floatVals[neu] = c.floatVals[old]
				}
			}
		default:
			nc.stringVals = make([]string, sub.distinct)
			for old, neu := range sub.rankMap {
				if neu >= 0 {
					nc.stringVals[neu] = c.stringVals[old]
				}
			}
		}
		b.cols = append(b.cols, nc)
	}
	tt, err := b.Build()
	if err != nil {
		// All columns share the same prefix length; Build cannot fail.
		panic("dataset: Head: " + err.Error())
	}
	return tt
}

type reencoded struct {
	ranks    []int32
	distinct int
	rankMap  []int32 // old rank -> new rank, or -1 if unused
}

// reencode densifies a rank slice that may use only a subset of its rank
// space, preserving relative order.
func reencode(ranks []int32) reencoded {
	maxRank := int32(-1)
	for _, r := range ranks {
		if r > maxRank {
			maxRank = r
		}
	}
	used := make([]bool, maxRank+1)
	for _, r := range ranks {
		used[r] = true
	}
	rankMap := make([]int32, maxRank+1)
	next := int32(0)
	for r := range used {
		if used[r] {
			rankMap[r] = next
			next++
		} else {
			rankMap[r] = -1
		}
	}
	out := make([]int32, len(ranks))
	for i, r := range ranks {
		out[i] = rankMap[r]
	}
	return reencoded{ranks: out, distinct: int(next), rankMap: rankMap}
}

func fromColumns(cols []*Column) (*Table, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("dataset: table needs at least one column")
	}
	rows := cols[0].Len()
	byName := make(map[string]int, len(cols))
	for i, c := range cols {
		if c.Len() != rows {
			return nil, fmt.Errorf("dataset: column %q has %d rows, want %d", c.name, c.Len(), rows)
		}
		if _, dup := byName[c.name]; dup {
			return nil, fmt.Errorf("dataset: duplicate column name %q", c.name)
		}
		byName[c.name] = i
	}
	return &Table{cols: cols, byName: byName, rows: rows}, nil
}

// String renders a short schema summary such as
// "Table(9 rows: pos:string, exp:int, sal:int)".
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table(%d rows:", t.rows)
	for i, c := range t.cols {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, " %s:%s", c.name, c.kind)
	}
	sb.WriteByte(')')
	return sb.String()
}

// Builder accumulates columns and assembles a Table.
type Builder struct {
	cols []*Column
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// AddInts appends an integer column.
func (b *Builder) AddInts(name string, vals []int64) *Builder {
	b.cols = append(b.cols, buildIntColumn(name, vals))
	return b
}

// AddFloats appends a float column. NaN values sort before all others.
func (b *Builder) AddFloats(name string, vals []float64) *Builder {
	b.cols = append(b.cols, buildFloatColumn(name, vals))
	return b
}

// AddStrings appends a string column ordered lexicographically.
func (b *Builder) AddStrings(name string, vals []string) *Builder {
	b.cols = append(b.cols, buildStringColumn(name, vals))
	return b
}

// Len returns the number of columns added so far.
func (b *Builder) Len() int { return len(b.cols) }

// Build assembles the Table, verifying all columns have equal length.
func (b *Builder) Build() (*Table, error) {
	return fromColumns(b.cols)
}

func buildIntColumn(name string, vals []int64) *Column {
	keys := make([]uint64, len(vals))
	for i, v := range vals {
		keys[i] = intKey(v)
	}
	ranks, firsts := rankKeys(keys)
	var sorted []int64
	if len(firsts) > 0 {
		sorted = make([]int64, len(firsts))
		for r, row := range firsts {
			sorted[r] = vals[row]
		}
	}
	return &Column{name: name, kind: KindInt, ranks: ranks, distinct: len(firsts), intVals: sorted}
}

// buildFloatColumn ranks NaNs before every other value and keeps one
// canonical NaN for them; -0 and +0 share a rank whose value is whichever of
// the two comes first in row order.
func buildFloatColumn(name string, vals []float64) *Column {
	keys := make([]uint64, len(vals))
	for i, v := range vals {
		keys[i] = floatKey(v)
	}
	ranks, firsts := rankKeys(keys)
	var sorted []float64
	if len(firsts) > 0 {
		sorted = make([]float64, len(firsts))
		for r, row := range firsts {
			sorted[r] = vals[row]
		}
		if math.IsNaN(sorted[0]) {
			sorted[0] = math.NaN()
		}
	}
	return &Column{name: name, kind: KindFloat, ranks: ranks, distinct: len(firsts), floatVals: sorted}
}

func buildStringColumn(name string, vals []string) *Column {
	distinctIdx := make(map[string]int32, len(vals)/4+1)
	for _, v := range vals {
		if _, ok := distinctIdx[v]; !ok {
			distinctIdx[v] = 0
		}
	}
	// Collected once the count is known, so the table keeps a slice of
	// exactly the distinct values.
	var sorted []string
	if len(distinctIdx) > 0 {
		sorted = make([]string, 0, len(distinctIdx))
		for v := range distinctIdx {
			sorted = append(sorted, v)
		}
	}
	sort.Strings(sorted)
	for r, v := range sorted {
		distinctIdx[v] = int32(r)
	}
	ranks := make([]int32, len(vals))
	for i, v := range vals {
		ranks[i] = distinctIdx[v]
	}
	return &Column{name: name, kind: KindString, ranks: ranks, distinct: len(sorted), stringVals: sorted}
}
