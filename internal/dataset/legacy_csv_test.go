package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
)

// legacyReadCSV is a test-only copy of the CSV reader as it was before each
// field was parsed once and int and float columns were ranked without a map:
// inference parses every field as an int and as a float and then again to
// build the column, and the column builders rank through a hash map. The
// differential tests hold ReadCSV to it: equal kinds, ranks, values,
// fingerprints and errors.
func legacyReadCSV(r io.Reader, opts CSVOptions) (*Table, error) {
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

	var raw [][]string // column-major
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
			raw = make([][]string, len(names))
		}
		if len(rec) != len(names) {
			return nil, fmt.Errorf("dataset: CSV row %d has %d fields, want %d", rows+1, len(rec), len(names))
		}
		for i, f := range rec {
			raw[i] = append(raw[i], f)
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
			if err := legacyAddTyped(b, name, raw[i], opts.Types[added]); err != nil {
				return nil, err
			}
		} else {
			legacyAddInferred(b, name, raw[i])
		}
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

func legacyAddInferred(b *Builder, name string, vals []string) {
	allInt, allFloat := true, true
	for _, v := range vals {
		if v == "" {
			allInt, allFloat = false, false
			break
		}
		if allInt {
			if _, err := strconv.ParseInt(v, 10, 64); err != nil {
				allInt = false
			}
		}
		if allFloat {
			if _, err := strconv.ParseFloat(v, 64); err != nil {
				allFloat = false
			}
		}
		if !allInt && !allFloat {
			break
		}
	}
	switch {
	case allInt:
		ints := make([]int64, len(vals))
		for i, v := range vals {
			ints[i], _ = strconv.ParseInt(v, 10, 64)
		}
		b.cols = append(b.cols, legacyIntColumn(name, ints))
	case allFloat:
		floats := make([]float64, len(vals))
		for i, v := range vals {
			floats[i], _ = strconv.ParseFloat(v, 64)
		}
		b.cols = append(b.cols, legacyFloatColumn(name, floats))
	default:
		b.AddStrings(name, vals)
	}
}

func legacyAddTyped(b *Builder, name string, vals []string, typ string) error {
	kind, err := KindFromString(typ)
	if err != nil {
		return err
	}
	switch kind {
	case KindInt:
		ints := make([]int64, len(vals))
		for i, v := range vals {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return fmt.Errorf("dataset: column %q row %d: %q is not an int", name, i+1, v)
			}
			ints[i] = n
		}
		b.cols = append(b.cols, legacyIntColumn(name, ints))
	case KindFloat:
		floats := make([]float64, len(vals))
		for i, v := range vals {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return fmt.Errorf("dataset: column %q row %d: %q is not a float", name, i+1, v)
			}
			floats[i] = f
		}
		b.cols = append(b.cols, legacyFloatColumn(name, floats))
	default:
		b.AddStrings(name, vals)
	}
	return nil
}

// legacyIntColumn is the map-ranked int column builder (its distinct values
// were sorted by a radix sort; any correct sort gives the same column).
func legacyIntColumn(name string, vals []int64) *Column {
	distinctIdx := make(map[int64]int32, len(vals)/4+1)
	var sorted []int64
	for _, v := range vals {
		if _, ok := distinctIdx[v]; !ok {
			distinctIdx[v] = 0
			sorted = append(sorted, v)
		}
	}
	slices.Sort(sorted)
	for r, v := range sorted {
		distinctIdx[v] = int32(r)
	}
	ranks := make([]int32, len(vals))
	for i, v := range vals {
		ranks[i] = distinctIdx[v]
	}
	return &Column{name: name, kind: KindInt, ranks: ranks, distinct: len(sorted), intVals: sorted}
}

// legacyFloatColumn is the map-ranked float column builder: the map merges
// -0 and +0 under whichever comes first, and NaNs get rank 0 under one
// canonical NaN.
func legacyFloatColumn(name string, vals []float64) *Column {
	distinctIdx := make(map[float64]int32, len(vals)/4+1)
	var sorted []float64
	hasNaN := false
	for _, v := range vals {
		if math.IsNaN(v) {
			hasNaN = true
			continue
		}
		if _, ok := distinctIdx[v]; !ok {
			distinctIdx[v] = 0
			sorted = append(sorted, v)
		}
	}
	sort.Float64s(sorted)
	if hasNaN {
		sorted = append([]float64{math.NaN()}, sorted...)
	}
	for r, v := range sorted {
		if !math.IsNaN(v) {
			distinctIdx[v] = int32(r)
		}
	}
	ranks := make([]int32, len(vals))
	for i, v := range vals {
		if math.IsNaN(v) {
			ranks[i] = 0
		} else {
			ranks[i] = distinctIdx[v]
		}
	}
	return &Column{name: name, kind: KindFloat, ranks: ranks, distinct: len(sorted), floatVals: sorted}
}
