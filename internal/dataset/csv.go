package dataset

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// CSVOptions controls CSV parsing.
type CSVOptions struct {
	// Comma is the field delimiter; 0 means ','.
	Comma rune
	// MaxRows limits the number of data rows read; 0 means unlimited.
	MaxRows int
	// Columns, when non-empty, restricts parsing to the named header columns.
	Columns []string
	// NoHeader indicates the first record is data; columns are then named
	// col0, col1, ...
	NoHeader bool
	// Types, when non-empty, forces the kind ("int", "float", "string") of
	// each kept column in order instead of inferring it, and must have
	// exactly one entry per kept column. A value that does not parse as the
	// forced type is an error. Types is how a ColumnTypes-aware reader
	// makes a CSV round trip lossless.
	Types []string
}

// ReadCSV parses CSV data into a Table, inferring each column's type:
// a column is KindInt if every value parses as int64, else KindFloat if every
// value parses as float64, else KindString. An empty field parses as neither,
// so a column with any empty field is a string column, where the empty
// string orders first. Each field is parsed once unless its column falls
// back to a wider kind (see addInferred). With CSVOptions.Types each column
// takes its given kind instead, and a field that does not parse as it is an
// error.
func ReadCSV(r io.Reader, opts CSVOptions) (*Table, error) {
	cr := csv.NewReader(r)
	if opts.Comma != 0 {
		cr.Comma = opts.Comma
	}
	cr.ReuseRecord = true
	cr.FieldsPerRecord = -1

	var header []string
	if !opts.NoHeader {
		rec, err := cr.Read()
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
		}
		header = append(header, rec...)
	}

	var raw []rawColumn
	var names []string
	rows := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV row %d: %w", rows+1, err)
		}
		if names == nil {
			if header == nil {
				header = make([]string, len(rec))
				for i := range rec {
					header[i] = fmt.Sprintf("col%d", i)
				}
			}
			names = header
			raw = make([]rawColumn, len(names))
		}
		if len(rec) != len(names) {
			return nil, fmt.Errorf("dataset: CSV row %d has %d fields, want %d", rows+1, len(rec), len(names))
		}
		for i, f := range rec {
			raw[i].text = append(raw[i].text, f...)
			raw[i].ends = append(raw[i].ends, len(raw[i].text))
		}
		rows++
		if opts.MaxRows > 0 && rows >= opts.MaxRows {
			break
		}
	}
	if rows == 0 {
		return nil, fmt.Errorf("dataset: CSV contains no data rows")
	}

	keep := make(map[string]bool)
	for _, c := range opts.Columns {
		keep[c] = true
	}

	b := NewBuilder()
	added := 0
	for i, name := range names {
		if len(keep) > 0 && !keep[name] {
			continue
		}
		if len(opts.Types) > 0 {
			if added >= len(opts.Types) {
				return nil, fmt.Errorf("dataset: %d column types for more CSV columns", len(opts.Types))
			}
			if err := addTyped(b, name, &raw[i], opts.Types[added]); err != nil {
				return nil, err
			}
		} else {
			addInferred(b, name, &raw[i])
		}
		raw[i] = rawColumn{} // the column's text is parsed; let it go
		added++
	}
	if added == 0 {
		return nil, fmt.Errorf("dataset: none of the requested columns %v found in CSV header", opts.Columns)
	}
	if len(opts.Types) > 0 && added != len(opts.Types) {
		return nil, fmt.Errorf("dataset: %d column types for %d CSV columns", len(opts.Types), added)
	}
	return b.Build()
}

// ReadCSVFile opens path and parses it with ReadCSV.
func ReadCSVFile(path string, opts CSVOptions) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(f, opts)
}

// rawColumn holds one column's fields as read, before they are parsed:
// their bytes back to back, and where each ends. Holding no pointers, it
// costs the garbage collector nothing to keep while the rest of the input
// is read, which a string per field did.
type rawColumn struct {
	text []byte
	ends []int
}

// field returns field i as a substring of s, the column's text.
func (c *rawColumn) field(s string, i int) string {
	start := 0
	if i > 0 {
		start = c.ends[i-1]
	}
	return s[start:c.ends[i]]
}

// addStrings adds the column as strings. Its fields are substrings of the
// whole column's text, so the distinct values are copied out: the table
// keeps them, not the text.
func (c *rawColumn) addStrings(b *Builder, name, s string) {
	vals := make([]string, len(c.ends))
	for i := range vals {
		vals[i] = c.field(s, i)
	}
	col := buildStringColumn(name, vals)
	for i, v := range col.stringVals {
		col.stringVals[i] = strings.Clone(v)
	}
	b.cols = append(b.cols, col)
}

// addInferred parses each field of the column once: as an int while every
// field so far was one, then — from the first field that is not — as a
// float, then as a string. A fallback re-reads only the fields already
// parsed as the narrower kind, so a column of one kind pays one parse per
// field.
func addInferred(b *Builder, name string, c *rawColumn) {
	s := string(c.text)
	n := len(c.ends)
	ints := make([]int64, n)
	i := 0
	for ; i < n; i++ {
		v, err := strconv.ParseInt(c.field(s, i), 10, 64)
		if err != nil {
			break
		}
		ints[i] = v
	}
	if i == n {
		b.AddInts(name, ints)
		return
	}
	// The parsed prefix is re-read as floats rather than converted: "-0"
	// parses as the int 0 but as the float -0.
	floats := make([]float64, n)
	for i = 0; i < n; i++ {
		f, err := strconv.ParseFloat(c.field(s, i), 64)
		if err != nil {
			break
		}
		floats[i] = f
	}
	if i == n {
		b.AddFloats(name, floats)
		return
	}
	c.addStrings(b, name, s)
}

// addTyped parses the column as the named kind, failing on any value that
// does not conform — the strictness a typed reload relies on to detect a
// corrupted file instead of silently re-typing it.
func addTyped(b *Builder, name string, c *rawColumn, typ string) error {
	kind, err := KindFromString(typ)
	if err != nil {
		return err
	}
	s := string(c.text)
	switch kind {
	case KindInt:
		ints := make([]int64, len(c.ends))
		for i := range ints {
			v := c.field(s, i)
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return fmt.Errorf("dataset: column %q row %d: %q is not an int", name, i+1, v)
			}
			ints[i] = n
		}
		b.AddInts(name, ints)
	case KindFloat:
		floats := make([]float64, len(c.ends))
		for i := range floats {
			v := c.field(s, i)
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return fmt.Errorf("dataset: column %q row %d: %q is not a float", name, i+1, v)
			}
			floats[i] = f
		}
		b.AddFloats(name, floats)
	default:
		c.addStrings(b, name, s)
	}
	return nil
}

// WriteCSV serializes the table (raw display values) as CSV with a header.
//
// It uses its own record encoder rather than encoding/csv.Writer for one
// reason: a single-column record whose field is empty must be written as
// `""`, not as the blank line csv.Writer produces — csv.Reader skips blank
// lines entirely, which would drop the header (empty column name) or rows
// (empty string values) on reload. Fuzzing the serialize→reload round trip
// found this; see FuzzReadCSV.
func WriteCSV(w io.Writer, t *Table) error {
	bw := bufio.NewWriter(w)
	if err := writeCSVRecord(bw, t.ColumnNames()); err != nil {
		return err
	}
	rec := make([]string, t.NumCols())
	for row := 0; row < t.NumRows(); row++ {
		for i := 0; i < t.NumCols(); i++ {
			rec[i] = t.Column(i).ValueString(row)
		}
		if err := writeCSVRecord(bw, rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeCSVRecord writes one RFC-4180 record, quoting fields that need it —
// including the single-empty-field record csv.Writer would turn into a
// skippable blank line.
func writeCSVRecord(w *bufio.Writer, rec []string) error {
	for i, f := range rec {
		if i > 0 {
			w.WriteByte(',')
		}
		if strings.ContainsAny(f, ",\"\r\n") || (len(rec) == 1 && f == "") {
			w.WriteByte('"')
			w.WriteString(strings.ReplaceAll(f, `"`, `""`))
			w.WriteByte('"')
		} else {
			w.WriteString(f)
		}
	}
	return w.WriteByte('\n')
}

// WriteCSVFile writes the table to path, creating or truncating it.
func WriteCSVFile(path string, t *Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteCSV(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
