// Package aod discovers (approximate) order dependencies in relational data.
//
// It is a from-scratch Go implementation of the system described in
// "Efficient Discovery of Approximate Order Dependencies" (Karegar, Godfrey,
// Golab, Kargar, Srivastava, Szlichta — EDBT 2021): a set-based, level-wise
// discovery framework for canonical order dependencies (order compatibilities
// plus order functional dependencies), equipped with the paper's optimal
// LNDS-based validator for approximate order compatibility, the legacy
// quadratic iterative validator it replaces, and exact validation.
//
// # Quick start
//
//	ds, err := aod.ReadCSVFile("employees.csv", aod.CSVOptions{})
//	if err != nil { ... }
//	report, err := aod.Discover(ds, aod.Options{
//		Threshold: 0.10,                  // allow 10% exceptions
//		Algorithm: aod.AlgorithmOptimal,  // the paper's Algorithm 2
//	})
//	for _, oc := range report.OCs {
//		fmt.Println(oc) // e.g. "{pos}: exp ∼ sal (e=0.1111)"
//	}
//
// A discovered OC "{X}: A ∼ B (e=é)" states that within every group of rows
// agreeing on X, the values of A and B can be sorted simultaneously after
// removing a fraction é of the table's rows — and é is exact and minimal
// (Theorem 3.3 of the paper). Removal sets can be collected for error repair
// and outlier detection.
package aod

import (
	"fmt"
	"io"

	"aod/internal/dataset"
)

// Dataset is an immutable, rank-encoded relational instance — the input to
// discovery and validation.
type Dataset struct {
	tbl *dataset.Table
}

// NumRows returns the number of tuples.
func (d *Dataset) NumRows() int { return d.tbl.NumRows() }

// NumCols returns the number of attributes.
func (d *Dataset) NumCols() int { return d.tbl.NumCols() }

// ColumnNames returns the attribute names in schema order.
func (d *Dataset) ColumnNames() []string { return d.tbl.ColumnNames() }

// ColumnTypes returns the column kind names ("int", "float", "string") in
// schema order. Passing them back via CSVOptions.Types makes a WriteCSV →
// ReadCSV round trip reconstruct the dataset exactly (equal Fingerprint),
// where type re-inference could diverge — a float column whose values are
// all integral would come back as ints.
func (d *Dataset) ColumnTypes() []string { return d.tbl.ColumnTypes() }

// Freeze eagerly materializes the dataset's lazily-built internal views
// (the descending column views behind bidirectional discovery), after which
// no operation writes to the dataset again. Long-lived registries freeze a
// dataset before sharing it across concurrent discovery jobs. It returns the
// dataset for chaining.
func (d *Dataset) Freeze() *Dataset {
	d.tbl.Freeze()
	return d
}

// Head returns the dataset restricted to its first n rows.
func (d *Dataset) Head(n int) *Dataset { return &Dataset{tbl: d.tbl.Head(n)} }

// Select returns the dataset restricted to the named columns.
func (d *Dataset) Select(names ...string) (*Dataset, error) {
	t, err := d.tbl.Select(names...)
	if err != nil {
		return nil, err
	}
	return &Dataset{tbl: t}, nil
}

// Value renders the raw value at (row, column name) for display.
func (d *Dataset) Value(row int, column string) (string, error) {
	i := d.tbl.ColumnIndex(column)
	if i < 0 {
		return "", fmt.Errorf("aod: no column %q", column)
	}
	if row < 0 || row >= d.tbl.NumRows() {
		return "", fmt.Errorf("aod: row %d out of range [0,%d)", row, d.tbl.NumRows())
	}
	return d.tbl.Column(i).ValueString(row), nil
}

// String summarizes the dataset schema.
func (d *Dataset) String() string { return d.tbl.String() }

// Fingerprint returns a hex-encoded SHA-256 content hash over the dataset's
// schema and column data. Equal fingerprints guarantee identical discovery
// results for identical options, which makes the fingerprint a safe cache
// and deduplication key (used by the aodserver dataset registry).
func (d *Dataset) Fingerprint() string { return dataset.Fingerprint(d.tbl) }

// table exposes the internal representation to sibling files.
func (d *Dataset) table() *dataset.Table { return d.tbl }

// Builder assembles a Dataset column by column.
type Builder struct {
	b *dataset.Builder
}

// NewBuilder returns an empty dataset builder.
func NewBuilder() *Builder { return &Builder{b: dataset.NewBuilder()} }

// AddInts appends an integer column.
func (b *Builder) AddInts(name string, vals []int64) *Builder {
	b.b.AddInts(name, vals)
	return b
}

// AddFloats appends a float column.
func (b *Builder) AddFloats(name string, vals []float64) *Builder {
	b.b.AddFloats(name, vals)
	return b
}

// AddStrings appends a string column (ordered lexicographically).
func (b *Builder) AddStrings(name string, vals []string) *Builder {
	b.b.AddStrings(name, vals)
	return b
}

// Build assembles the Dataset.
func (b *Builder) Build() (*Dataset, error) {
	t, err := b.b.Build()
	if err != nil {
		return nil, err
	}
	return &Dataset{tbl: t}, nil
}

// CSVOptions controls CSV parsing; the zero value reads a comma-separated
// file with a header row.
type CSVOptions struct {
	// Comma is the field delimiter (0 = ',').
	Comma rune
	// MaxRows limits the number of data rows read (0 = all).
	MaxRows int
	// Columns restricts parsing to the named columns (empty = all).
	Columns []string
	// NoHeader treats the first record as data (columns named col0, col1…).
	NoHeader bool
	// Types forces the kind ("int", "float", "string") of each kept column
	// in order instead of inferring it (empty = infer). See
	// Dataset.ColumnTypes.
	Types []string
}

// ReadCSV parses CSV data into a Dataset with per-column type inference
// (int, then float, then string).
func ReadCSV(r io.Reader, opts CSVOptions) (*Dataset, error) {
	t, err := dataset.ReadCSV(r, dataset.CSVOptions(opts))
	if err != nil {
		return nil, err
	}
	return &Dataset{tbl: t}, nil
}

// ReadCSVFile opens path and parses it with ReadCSV.
func ReadCSVFile(path string, opts CSVOptions) (*Dataset, error) {
	t, err := dataset.ReadCSVFile(path, dataset.CSVOptions(opts))
	if err != nil {
		return nil, err
	}
	return &Dataset{tbl: t}, nil
}

// WriteCSV serializes the dataset as CSV with a header row.
func (d *Dataset) WriteCSV(w io.Writer) error { return dataset.WriteCSV(w, d.tbl) }

// AppendColumnar appends the dataset's binary columnar encoding to b: the
// rank-encoded columns and their distinct values, the form the persistence
// layer stores and shard workers receive. Unlike CSV it round-trips every
// value, and decoding it parses no text.
func (d *Dataset) AppendColumnar(b []byte) []byte { return dataset.AppendColumnar(b, d.tbl) }

// DecodeColumnar rebuilds a dataset from AppendColumnar's encoding. Any
// input yields a dataset or an error, never a panic; a caller holding the
// expected Fingerprint compares it to prove the bytes were intact.
func DecodeColumnar(b []byte) (*Dataset, error) {
	t, err := dataset.DecodeColumnar(b)
	if err != nil {
		return nil, err
	}
	return &Dataset{tbl: t}, nil
}

// WriteCSVFile writes the dataset to path.
func (d *Dataset) WriteCSVFile(path string) error { return dataset.WriteCSVFile(path, d.tbl) }
