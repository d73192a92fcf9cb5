package dataset

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// ColumnData is the raw material of one rank-encoded column: the dense rank
// array plus the distinct raw values in rank order — exactly the per-column
// inputs of Fingerprint, and what the columnar codec below writes per
// column. Column.Data and TableFromColumns let a caller derive a table from
// another column by column without rendering or re-parsing values.
//
// Exactly one of Ints/Floats/Strings must be populated, matching Kind; its
// length is the column's distinct count.
type ColumnData struct {
	Name    string
	Kind    Kind
	Ranks   []int32
	Ints    []int64
	Floats  []float64
	Strings []string
}

// Data returns the column's reconstruction parts. The slices alias the
// column's internals — callers must not modify them.
func (c *Column) Data() ColumnData {
	return ColumnData{
		Name:    c.name,
		Kind:    c.kind,
		Ranks:   c.ranks,
		Ints:    c.intVals,
		Floats:  c.floatVals,
		Strings: c.stringVals,
	}
}

// TableFromColumns assembles a Table directly from rank-encoded column parts,
// the inverse of Column.Data. It validates structural safety — every rank
// array has exactly rows entries, every rank lies in [0, distinct), the value
// slice matches the declared kind — so a table built from untrusted parts
// can never index out of bounds. It does NOT verify semantic invariants
// (values sorted ascending, every rank used); a caller that needs full
// fidelity compares Fingerprint against the source's.
func TableFromColumns(rows int, cols []ColumnData) (*Table, error) {
	if rows < 0 {
		return nil, fmt.Errorf("dataset: negative row count %d", rows)
	}
	built := make([]*Column, len(cols))
	for i, cd := range cols {
		if len(cd.Ranks) != rows {
			return nil, fmt.Errorf("dataset: column %q has %d ranks, want %d", cd.Name, len(cd.Ranks), rows)
		}
		c := &Column{name: cd.Name, kind: cd.Kind, ranks: cd.Ranks}
		switch cd.Kind {
		case KindInt:
			if cd.Floats != nil || cd.Strings != nil {
				return nil, fmt.Errorf("dataset: int column %q carries non-int values", cd.Name)
			}
			c.intVals = cd.Ints
			c.distinct = len(cd.Ints)
		case KindFloat:
			if cd.Ints != nil || cd.Strings != nil {
				return nil, fmt.Errorf("dataset: float column %q carries non-float values", cd.Name)
			}
			c.floatVals = cd.Floats
			c.distinct = len(cd.Floats)
		case KindString:
			if cd.Ints != nil || cd.Floats != nil {
				return nil, fmt.Errorf("dataset: string column %q carries non-string values", cd.Name)
			}
			c.stringVals = cd.Strings
			c.distinct = len(cd.Strings)
		default:
			return nil, fmt.Errorf("dataset: column %q has unknown kind %d", cd.Name, int(cd.Kind))
		}
		for r, rank := range cd.Ranks {
			if rank < 0 || int(rank) >= c.distinct {
				return nil, fmt.Errorf("dataset: column %q row %d has rank %d outside [0,%d)", cd.Name, r, rank, c.distinct)
			}
		}
		built[i] = c
	}
	return fromColumns(built)
}

// The columnar codec is the one binary form of a table outside memory: the
// shard protocol's dataset frame carries it to workers, and the persistence
// layer stores it on disk. Per column it holds exactly the inputs of
// Fingerprint, so a decoded table's fingerprint proves the bytes carried the
// table losslessly, and no value is ever rendered or re-parsed as text.
//
//	uvarint rows, uvarint column count, then per column:
//	  uvarint length + name bytes
//	  kind byte (0 int, 1 float, 2 string)
//	  uvarint distinct count, then the distinct values in rank order:
//	    int     zigzag varint deltas, each from the previous value (the
//	            first from 0): sorted values make them small
//	    float   fixed 8-byte little-endian IEEE-754 bit patterns
//	    string  uvarint length + bytes
//	  rank width byte: 1, 2 or 4, the narrowest that holds every rank
//	  rows ranks, each width bytes little-endian

// rankWidth picks the narrowest little-endian byte width that can hold every
// rank of a column with the given distinct count.
func rankWidth(distinct int) int {
	switch {
	case distinct <= 1<<8:
		return 1
	case distinct <= 1<<16:
		return 2
	default:
		return 4
	}
}

// AppendColumnar appends the columnar encoding of t to b and returns the
// extended slice. The encoding is deterministic: equal tables encode to
// equal bytes.
func AppendColumnar(b []byte, t *Table) []byte {
	b = binary.AppendUvarint(b, uint64(t.rows))
	b = binary.AppendUvarint(b, uint64(len(t.cols)))
	for _, c := range t.cols {
		b = binary.AppendUvarint(b, uint64(len(c.name)))
		b = append(b, c.name...)
		b = append(b, byte(c.kind))
		b = binary.AppendUvarint(b, uint64(c.distinct))
		switch c.kind {
		case KindInt:
			prev := int64(0)
			for _, v := range c.intVals {
				b = binary.AppendVarint(b, v-prev)
				prev = v
			}
		case KindFloat:
			for _, v := range c.floatVals {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
			}
		default:
			for _, v := range c.stringVals {
				b = binary.AppendUvarint(b, uint64(len(v)))
				b = append(b, v...)
			}
		}
		w := rankWidth(c.distinct)
		b = append(b, byte(w))
		b = slices.Grow(b, w*len(c.ranks))
		switch w {
		case 1:
			for _, rk := range c.ranks {
				b = append(b, byte(rk))
			}
		case 2:
			for _, rk := range c.ranks {
				b = binary.LittleEndian.AppendUint16(b, uint16(rk))
			}
		default:
			for _, rk := range c.ranks {
				b = binary.LittleEndian.AppendUint32(b, uint32(rk))
			}
		}
	}
	return b
}

// DecodeColumnar rebuilds a table from its columnar encoding. It is total:
// arbitrary bytes yield an error, never a panic, and every count is checked
// against the bytes left before anything is allocated, so allocation stays
// linear in len(b). It accepts only the canonical form — minimal varints,
// the narrowest rank width, no trailing bytes — so every payload it accepts
// re-encodes to the same bytes. Every rank is checked against its column's
// distinct count, so the table can never index out of bounds; like
// TableFromColumns it does not check that values are sorted or that every
// rank is used, which a fingerprint comparison covers.
func DecodeColumnar(b []byte) (*Table, error) {
	r := &colReader{b: b}
	// Every column carries one rank of at least one byte per row, so a row
	// count beyond the payload can only be a lie.
	rows, err := r.count(1)
	if err != nil {
		return nil, err
	}
	// A column takes at least four bytes: name length, kind, distinct count
	// and rank width.
	ncols, err := r.count(4)
	if err != nil {
		return nil, err
	}
	cols := make([]*Column, 0, ncols)
	for i := 0; i < ncols; i++ {
		c, err := r.column(rows)
		if err != nil {
			return nil, err
		}
		cols = append(cols, c)
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("dataset: %d trailing bytes after columnar payload", r.remaining())
	}
	return fromColumns(cols)
}

var errColumnarTruncated = errors.New("dataset: truncated columnar payload")

// colReader walks a columnar payload with total bounds checking.
type colReader struct {
	b   []byte
	off int
}

func (r *colReader) remaining() int { return len(r.b) - r.off }

// uvarint reads one minimally encoded unsigned varint: a final byte of zero
// after a continuation byte would encode the same value in fewer bytes.
func (r *colReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, errColumnarTruncated
	}
	if n > 1 && r.b[r.off+n-1] == 0 {
		return 0, fmt.Errorf("dataset: non-minimal varint at byte %d", r.off)
	}
	r.off += n
	return v, nil
}

// varint reads one minimally encoded zigzag varint.
func (r *colReader) varint() (int64, error) {
	u, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	return int64(u>>1) ^ -int64(u&1), nil
}

// count reads an element count and checks it against the bytes left, each
// element taking at least minBytes, so a hostile count can never drive a
// large allocation.
func (r *colReader) count(minBytes int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(r.remaining()/minBytes) {
		return 0, fmt.Errorf("dataset: count %d exceeds columnar payload", v)
	}
	return int(v), nil
}

func (r *colReader) take(n int) ([]byte, error) {
	if n > r.remaining() {
		return nil, errColumnarTruncated
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *colReader) string() (string, error) {
	n, err := r.count(1)
	if err != nil {
		return "", err
	}
	b, err := r.take(n)
	return string(b), err
}

// column decodes one column of rows ranks.
func (r *colReader) column(rows int) (*Column, error) {
	name, err := r.string()
	if err != nil {
		return nil, err
	}
	kb, err := r.take(1)
	if err != nil {
		return nil, err
	}
	c := &Column{name: name, kind: Kind(kb[0])}
	minBytes := 1
	switch c.kind {
	case KindInt, KindString:
	case KindFloat:
		minBytes = 8
	default:
		return nil, fmt.Errorf("dataset: column %q has unknown kind %d", name, kb[0])
	}
	if c.distinct, err = r.count(minBytes); err != nil {
		return nil, err
	}
	if c.distinct > rows {
		return nil, fmt.Errorf("dataset: column %q has %d distinct values over %d rows", name, c.distinct, rows)
	}
	if c.distinct > 0 {
		switch c.kind {
		case KindInt:
			c.intVals = make([]int64, c.distinct)
			prev := int64(0)
			for j := range c.intVals {
				d, err := r.varint()
				if err != nil {
					return nil, err
				}
				prev += d
				c.intVals[j] = prev
			}
		case KindFloat:
			raw, err := r.take(8 * c.distinct)
			if err != nil {
				return nil, err
			}
			c.floatVals = make([]float64, c.distinct)
			for j := range c.floatVals {
				c.floatVals[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j:]))
			}
		default:
			c.stringVals = make([]string, c.distinct)
			for j := range c.stringVals {
				if c.stringVals[j], err = r.string(); err != nil {
					return nil, err
				}
			}
		}
	}
	wb, err := r.take(1)
	if err != nil {
		return nil, err
	}
	w := int(wb[0])
	if w != rankWidth(c.distinct) {
		return nil, fmt.Errorf("dataset: column %q has rank width %d, want %d", name, w, rankWidth(c.distinct))
	}
	raw, err := r.take(rows * w)
	if err != nil {
		return nil, err
	}
	c.ranks = make([]int32, rows)
	for j := range c.ranks {
		var rk uint32
		switch w {
		case 1:
			rk = uint32(raw[j])
		case 2:
			rk = uint32(binary.LittleEndian.Uint16(raw[2*j:]))
		default:
			rk = binary.LittleEndian.Uint32(raw[4*j:])
		}
		if rk >= uint32(c.distinct) {
			return nil, fmt.Errorf("dataset: column %q row %d has rank %d outside [0,%d)", name, j, rk, c.distinct)
		}
		c.ranks[j] = int32(rk)
	}
	return c, nil
}
