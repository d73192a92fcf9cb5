package main

import (
	"bytes"
	"errors"
	"fmt"

	"aod/internal/dataset"
)

// variantShift spaces the values of successive variants of a table.
const variantShift = 1 << 32

// variant returns a copy of t whose first integer column has every value
// shifted by k·variantShift. Discovery sees only ranks, and a shift keeps
// every rank, so each variant takes exactly the work of t and yields the
// same dependencies — while its content fingerprint, the server's cache key,
// is its own. Variants are how the benchmark makes inputs that differ by
// seed, or datasets the server has never seen, without changing the work.
func variant(t *dataset.Table, k int) (*dataset.Table, error) {
	cols := make([]dataset.ColumnData, t.NumCols())
	shifted := false
	for i := range cols {
		cd := t.Column(i).Data() // value slices are shared read-only
		if !shifted && cd.Kind == dataset.KindInt {
			vals := make([]int64, len(cd.Ints))
			for j, v := range cd.Ints {
				vals[j] = v + int64(k)*variantShift
			}
			cd.Ints = vals
			shifted = true
		}
		cols[i] = cd
	}
	if !shifted {
		return nil, errors.New("table has no integer column to shift")
	}
	out, err := dataset.TableFromColumns(t.NumRows(), cols)
	if err != nil {
		return nil, fmt.Errorf("building variant %d: %w", k, err)
	}
	return out.Freeze(), nil
}

// seedVariant is the first variant a seed's inputs use. A run uses fewer
// than 10,000 variants, so seeds that differ modulo 65,536 share none.
func seedVariant(seed int64) int { return int(seed%(1<<16)) * 10000 }

// variantBodies renders variants first, first+1, … of t, n in all, as CSV
// upload bodies.
func variantBodies(t *dataset.Table, first, n int) ([][]byte, error) {
	out := make([][]byte, n)
	for i := range out {
		v, err := variant(t, first+i)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := dataset.WriteCSV(&buf, v); err != nil {
			return nil, fmt.Errorf("rendering CSV: %w", err)
		}
		out[i] = buf.Bytes()
	}
	return out, nil
}
