package dataset

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// FuzzReadCSV feeds arbitrary bytes to the CSV ingest path — the surface
// every aodserver upload crosses. Whatever the input (malformed quoting,
// ragged rows, huge fields, binary junk), ReadCSV must either fail cleanly
// or produce a table satisfying the rank-encoding invariants. It must agree
// with legacyReadCSV, the reader before single-parse inference and map-free
// ranking, on the table or the error; the table must survive the columnar
// round trip the persistence layer stores it in, and the typed CSV round
// trip. Additional seeds live in testdata/fuzz/FuzzReadCSV.
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
		legacy, lerr := legacyReadCSV(bytes.NewReader(data), CSVOptions{})
		if err := sameResult(tbl, err, legacy, lerr); err != nil {
			t.Fatalf("ReadCSV diverges from the legacy reader: %v", err)
		}
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

		// Columnar round trip: every table, byte for byte.
		enc := AppendColumnar(nil, tbl)
		back, err := DecodeColumnar(enc)
		if err != nil {
			t.Fatalf("decoding the columnar encoding of an accepted table: %v", err)
		}
		if err := sameTable(back, tbl); err != nil {
			t.Fatalf("columnar round trip: %v", err)
		}

		// CSV round trip: serialize and reload with the recorded column
		// types. CSV cannot represent a value containing '\r' unambiguously
		// (the reader folds \r\n to \n inside quotes), so such tables are
		// exempt here; the columnar form above carries them.
		if tableContainsCR(tbl) {
			return
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, tbl); err != nil {
			t.Fatalf("serializing accepted table: %v", err)
		}
		back, err = ReadCSV(bytes.NewReader(buf.Bytes()), CSVOptions{Types: tbl.ColumnTypes()})
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
// content means — row order, column names, and column kinds. Every table it
// builds, one of each column kind among them, must also keep the id
// legacyFingerprint gives it. Additional seeds live in
// testdata/fuzz/FuzzFingerprint.
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
		// Ids must not change: every kind, a NaN among the floats, hashes
		// as it did value by value.
		strs, fl := make([]string, len(vals)), make([]float64, len(vals))
		for i, v := range vals {
			strs[i] = strings.Repeat("x", int(uint64(v)%5)) + fmt.Sprint(v%7)
			fl[i] = float64(v % 11)
		}
		if vals[0]%2 != 0 {
			fl[0] = math.NaN()
		}
		mixed, err := NewBuilder().AddStrings(name, strs).AddInts(name+"i", vals).AddFloats(name+"f", fl).Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, tbl := range []*Table{build(name, vals), ftbl, wide, mixed} {
			if got, want := Fingerprint(tbl), legacyFingerprint(tbl); got != want {
				t.Fatalf("fingerprint %s, want the value-by-value id %s", got, want)
			}
		}
	})
}

// sameResult reports how two reader results differ: both must fail with the
// same message, or both succeed with the same table.
func sameResult(got *Table, gotErr error, want *Table, wantErr error) error {
	switch {
	case gotErr != nil || wantErr != nil:
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			return fmt.Errorf("error %v, want %v", gotErr, wantErr)
		}
		return nil
	}
	return sameTable(got, want)
}

// sameTable reports the first way two tables differ: row count, then per
// column its name, kind, distinct count, values bit for bit and ranks, and
// last the fingerprint.
func sameTable(got, want *Table) error {
	if got.NumRows() != want.NumRows() || got.NumCols() != want.NumCols() {
		return fmt.Errorf("shape %d×%d, want %d×%d", got.NumRows(), got.NumCols(), want.NumRows(), want.NumCols())
	}
	for i := 0; i < want.NumCols(); i++ {
		g, w := got.Column(i), want.Column(i)
		if g.name != w.name || g.kind != w.kind || g.distinct != w.distinct {
			return fmt.Errorf("column %d is %q %v with %d values, want %q %v with %d", i, g.name, g.kind, g.distinct, w.name, w.kind, w.distinct)
		}
		floatBits := func(v []float64) []uint64 {
			out := make([]uint64, len(v))
			for j, f := range v {
				out[j] = math.Float64bits(f)
			}
			return out
		}
		if !slices.Equal(g.intVals, w.intVals) || !slices.Equal(g.stringVals, w.stringVals) ||
			!slices.Equal(floatBits(g.floatVals), floatBits(w.floatVals)) {
			return fmt.Errorf("column %q: distinct values differ", w.name)
		}
		if !slices.Equal(g.ranks, w.ranks) {
			return fmt.Errorf("column %q: ranks differ", w.name)
		}
	}
	if Fingerprint(got) != Fingerprint(want) {
		return fmt.Errorf("fingerprint %s, want %s", Fingerprint(got), Fingerprint(want))
	}
	return nil
}

// columnarSeedTable covers every column kind: negative and extreme ints,
// floats with NaN, -0 and +Inf, and strings holding "\r\n", the empty
// string and invalid UTF-8.
func columnarSeedTable(f interface{ Fatal(...any) }) *Table {
	tbl, err := NewBuilder().
		AddInts("i", []int64{math.MinInt64, -3, 0, 3, math.MaxInt64, 3}).
		AddFloats("f", []float64{math.NaN(), math.Copysign(0, -1), 0, 2.5, math.Inf(1), 2.5}).
		AddStrings("s", []string{"a\r\nb", "", "\xff", "z", "a\r\nb", "é"}).
		Build()
	if err != nil {
		f.Fatal(err)
	}
	return tbl
}

// FuzzDecodeColumnar pins the columnar codec's contract: DecodeColumnar
// never panics on arbitrary bytes, allocates at most a constant factor of
// its input, and accepts only canonical payloads — every payload it accepts
// re-encodes byte for byte.
func FuzzDecodeColumnar(f *testing.F) {
	// The table FuzzDecodeFrame ships in its dataset seed, one with every
	// kind, and one whose 300 distinct ints need two-byte ranks.
	small, err := ReadCSV(strings.NewReader("a,b\n1,x\n2,y\n1,x\n"), CSVOptions{})
	if err != nil {
		f.Fatal(err)
	}
	wideVals := make([]int64, 300)
	for i := range wideVals {
		wideVals[i] = int64(i*7919%300) - 150
	}
	wide, err := NewBuilder().AddInts("w", wideVals).AddStrings("c", slices.Repeat([]string{"p", "q", "r"}, 100)).Build()
	if err != nil {
		f.Fatal(err)
	}
	smallEnc := AppendColumnar(nil, small)
	for _, seed := range [][]byte{
		smallEnc,
		AppendColumnar(nil, columnarSeedTable(f)),
		AppendColumnar(nil, wide),
		smallEnc[:1], // truncations
		smallEnc[:len(smallEnc)/2],
		smallEnc[:len(smallEnc)-1],
		append(slices.Clone(smallEnc), 0), // a trailing byte
		{},
	} {
		f.Add(seed)
	}
	// An out-of-range rank: the last rank of column b (2 distinct values)
	// set to 2.
	bad := slices.Clone(smallEnc)
	bad[len(bad)-1] = 2
	f.Add(bad)
	// Rank width 3, which no column has: the width byte of column b sits
	// right before its three ranks.
	bad = slices.Clone(smallEnc)
	bad[len(bad)-4] = 3
	f.Add(bad)
	// A non-minimal varint for the row count: 3 as 0x83 0x00.
	f.Add(append([]byte{0x83, 0x00}, smallEnc[1:]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tbl, err := DecodeColumnar(data) // must never panic
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(64*len(data)+64<<10) {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), alloc)
		}
		if err != nil {
			return
		}
		if enc := AppendColumnar(nil, tbl); !bytes.Equal(enc, data) {
			t.Fatalf("accepted payload re-encodes differently:\n  in %x\n out %x", data, enc)
		}
	})
}
