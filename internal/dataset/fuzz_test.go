package dataset

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// FuzzReadCSV feeds arbitrary bytes to the CSV ingest path — the surface
// every aodserver upload crosses. Whatever the input (malformed quoting,
// ragged rows, huge fields, binary junk), ReadCSV must either fail cleanly
// or produce a table satisfying the rank-encoding invariants AND surviving
// the serialize→reload round trip the persistence layer depends on.
// Additional seeds live in testdata/fuzz/FuzzReadCSV.
func FuzzReadCSV(f *testing.F) {
	for _, seed := range []string{
		"a,b\n1,2\n3,4\n",
		"a,b\n1,2\n3\n",             // ragged row
		"a,\"b\n1,2\n",              // unterminated quote
		"\"a\"x,b\n1,2\n",           // junk after closing quote
		"a,a\n1,2\n",                // duplicate header names
		"a,b\nNaN,+Inf\n-0,1e309\n", // float specials and overflow
		"a\n\n\n",                   // empty fields
		",\n,\n",                    // empty names and fields
		"a,b\r\n1,2\r\n",            // CRLF endings
		"a\n\"x\r\r\ny\"\n\"z\"\n",  // \r\r\n inside quotes: folds to \r\n
		"h," + strings.Repeat("x", 1<<13) + "\n1,2\n", // huge header field
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, err := ReadCSV(bytes.NewReader(data), CSVOptions{})
		if err != nil {
			return // rejecting bad input is fine; panicking is the bug
		}
		rows := tbl.NumRows()
		if rows < 1 || tbl.NumCols() < 1 {
			t.Fatalf("accepted table has %d rows × %d cols", rows, tbl.NumCols())
		}
		for i := 0; i < tbl.NumCols(); i++ {
			c := tbl.Column(i)
			if c.Len() != rows {
				t.Fatalf("column %d has %d rows, table has %d", i, c.Len(), rows)
			}
			d := c.NumDistinct()
			if d < 1 || d > rows {
				t.Fatalf("column %d: %d distinct values for %d rows", i, d, rows)
			}
			for r := 0; r < rows; r++ {
				if rank := c.Rank(r); rank < 0 || int(rank) >= d {
					t.Fatalf("column %d row %d: rank %d outside [0,%d)", i, r, rank, d)
				}
				_ = c.ValueString(r) // must render, not panic
			}
		}

		// Round trip: serialize and reload with the recorded column types.
		// CSV cannot represent a value containing '\r' unambiguously (the
		// reader folds \r\n to \n inside quotes), so such tables are exempt
		// here — and the store refuses them up front (ErrUnserializable).
		if tableContainsCR(tbl) {
			return
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, tbl); err != nil {
			t.Fatalf("serializing accepted table: %v", err)
		}
		back, err := ReadCSV(bytes.NewReader(buf.Bytes()), CSVOptions{Types: tbl.ColumnTypes()})
		if err != nil {
			t.Fatalf("reloading serialized table: %v\nserialized:\n%s", err, buf.Bytes())
		}
		if Fingerprint(back) != Fingerprint(tbl) {
			t.Fatalf("fingerprint changed across serialize→reload\nserialized:\n%s", buf.Bytes())
		}
	})
}

func tableContainsCR(t *Table) bool {
	for i := 0; i < t.NumCols(); i++ {
		c := t.Column(i)
		if strings.ContainsRune(c.Name(), '\r') {
			return true
		}
		if c.Kind() == KindString {
			for _, v := range c.stringVals {
				if strings.ContainsRune(v, '\r') {
					return true
				}
			}
		}
	}
	return false
}

// FuzzFingerprint checks the contract the registry and result cache build
// on: the fingerprint is a pure function of content (equal content ⇒ equal
// fingerprint, across independent constructions) and sensitive to what
// content means — row order, column names, and column kinds. Additional
// seeds live in testdata/fuzz/FuzzFingerprint.
func FuzzFingerprint(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0}, "col")
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}, "")
	f.Fuzz(func(t *testing.T, data []byte, name string) {
		if len(data) < 16 {
			return
		}
		if len(data) > 64*8 {
			data = data[:64*8] // plenty of rows; keep iterations fast
		}
		vals := make([]int64, len(data)/8)
		for i := range vals {
			vals[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
		}
		build := func(name string, vals []int64) *Table {
			tbl, err := NewBuilder().AddInts(name, vals).Build()
			if err != nil {
				t.Fatal(err)
			}
			return tbl
		}

		base := Fingerprint(build(name, vals))
		// Determinism: an independent construction of equal content agrees.
		if again := Fingerprint(build(name, append([]int64(nil), vals...))); again != base {
			t.Fatalf("equal content, different fingerprints: %s vs %s", base, again)
		}
		// Row-order sensitivity: swapping two unequal rows is different
		// content.
		if vals[0] != vals[1] {
			swapped := append([]int64(nil), vals...)
			swapped[0], swapped[1] = swapped[1], swapped[0]
			if Fingerprint(build(name, swapped)) == base {
				t.Fatal("row order ignored by fingerprint")
			}
		}
		// Schema sensitivity: a renamed column is a different dataset.
		if Fingerprint(build(name+"′", vals)) == base {
			t.Fatal("column name ignored by fingerprint")
		}
		// Kind sensitivity: the same numbers as floats are different content.
		floats := make([]float64, len(vals))
		for i, v := range vals {
			floats[i] = float64(v)
		}
		ftbl, err := NewBuilder().AddFloats(name, floats).Build()
		if err != nil {
			t.Fatal(err)
		}
		if Fingerprint(ftbl) == base {
			t.Fatal("column kind ignored by fingerprint")
		}
		// Width sensitivity: appending a column is a different dataset.
		wide, err := NewBuilder().AddInts(name, vals).AddInts(name+"2", vals).Build()
		if err != nil {
			t.Fatal(err)
		}
		if Fingerprint(wide) == base {
			t.Fatal("column count ignored by fingerprint")
		}
	})
}
