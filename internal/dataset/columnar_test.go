package dataset

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestDecodeColumnarRejects pins each check that keeps DecodeColumnar total
// and canonical, on corruptions of one small payload: column a holds ints
// 1 2 1, column b strings x y x.
func TestDecodeColumnarRejects(t *testing.T) {
	tbl, err := ReadCSV(strings.NewReader("a,b\n1,x\n2,y\n1,x\n"), CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	good := AppendColumnar(nil, tbl)
	back, err := DecodeColumnar(good)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameTable(back, tbl); err != nil {
		t.Fatal(err)
	}
	edit := func(f func(b []byte) []byte) []byte { return f(slices.Clone(good)) }
	// Layout: rows 3, cols 2, then "a" int (2 values: deltas 1 1, width 1,
	// ranks 0 1 0), then "b" string (2 values: x y, width 1, ranks 0 1 0).
	for name, tc := range map[string]struct {
		data []byte
		want string
	}{
		"truncated":          {good[:len(good)-1], "truncated"},
		"trailing byte":      {append(slices.Clone(good), 0), "trailing"},
		"rank out of range":  {edit(func(b []byte) []byte { b[len(b)-1] = 2; return b }), "outside [0,2)"},
		"rank width 3":       {edit(func(b []byte) []byte { b[len(b)-4] = 3; return b }), "rank width 3"},
		"wider than needed":  {edit(func(b []byte) []byte { b[len(b)-4] = 2; return b }), "rank width 2"},
		"unknown kind":       {edit(func(b []byte) []byte { b[4] = 7; return b }), "unknown kind"},
		"more values a rows": {edit(func(b []byte) []byte { b[5] = 4; return b }), "4 distinct values over 3 rows"},
		"non-minimal varint": {append([]byte{0x83, 0x00}, good[1:]...), "non-minimal"},
		"huge row count":     {append([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}, good[1:]...), "exceeds"},
		"no columns":         {[]byte{0, 0}, "at least one column"},
		"duplicate names":    {append(append([]byte{3, 2}, good[2:12]...), good[2:12]...), "duplicate column"},
	} {
		if _, err := DecodeColumnar(tc.data); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", name, err, tc.want)
		}
	}
}

// TestReadCSVMatchesLegacyReader holds ReadCSV to legacyReadCSV on the
// inputs where parsing a field once could diverge from parsing it as both
// kinds: "-0" (the int 0 but the float -0), NaN, ints past int64, empty
// fields, leading spaces, a float column whose first fields are ints, and
// forced types — plus a wide random table.
func TestReadCSVMatchesLegacyReader(t *testing.T) {
	var wide strings.Builder
	wide.WriteString("i,f,s,late\n")
	for r := 0; r < 2000; r++ {
		late := "7"
		if r == 1999 {
			late = "7.5"
		}
		fmt.Fprintf(&wide, "%d,%g,k%d,%s\n", (r*7919)%613-300, float64((r*31)%97)/8, r%41, late)
	}
	cases := []struct {
		csv  string
		opts CSVOptions
	}{
		{csv: "a\n-0\n0\n-0\n"},
		{csv: "a\n-0\n0.5\n0\n"},
		{csv: "a\n0\n-0.0\n-0\n"},
		{csv: "a,b\nNaN,nan\n1,-Inf\nNaN,+Inf\n"},
		{csv: "a\n9223372036854775807\n9223372036854775808\n"},
		{csv: "a\n-9223372036854775808\n-9223372036854775809\n"},
		{csv: "a\n1e309\n1\n"},
		{csv: "a,b\n1,\n,2\n3,4\n"},
		{csv: "a,b\n 1,2\n3, 4.5\n"},
		{csv: "a\n+5\n0x10\n1_000\n"},
		{csv: "a\n1\n2\n3\n4.25\n"},
		{csv: "a\n1\n2\nthree\n"},
		{csv: "a;b\n1;x\n2;y\n", opts: CSVOptions{Comma: ';'}},
		{csv: "1,2.5\n-0,x\n", opts: CSVOptions{NoHeader: true}},
		{csv: "a,b,c\n1,2,3\n4,5,6\n7,8,9\n", opts: CSVOptions{MaxRows: 2, Columns: []string{"c", "a"}}},
		{csv: "a,b\n1,2\n3,4\n", opts: CSVOptions{Types: []string{"float", "string"}}},
		{csv: "a,b\n1,2\n-0,x\n", opts: CSVOptions{Types: []string{"float", "int"}}},
		{csv: "a,b\n1,2\n", opts: CSVOptions{Types: []string{"int"}}},
		{csv: "a,b\n1\n"},
		{csv: "a,b\n"},
		{csv: wide.String()},
	}
	for _, tc := range cases {
		got, err := ReadCSV(strings.NewReader(tc.csv), tc.opts)
		want, werr := legacyReadCSV(strings.NewReader(tc.csv), tc.opts)
		if d := sameResult(got, err, want, werr); d != nil {
			t.Errorf("%.40q %+v: %v", tc.csv, tc.opts, d)
		}
	}
}
