package shard

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"aod/internal/dataset"
	"aod/internal/gen"
)

// TestDatasetFrameBytesUnchanged pins the protocol-5 dataset frame byte for
// byte: the frame now carries package dataset's columnar encoding, and
// these are the lengths and SHA-256 digests of the frames the protocol
// shipped before that move, over the one-, two- and four-byte rank widths
// and every column kind (NaN, -0, +Inf, "\r\n", invalid UTF-8).
func TestDatasetFrameBytesUnchanged(t *testing.T) {
	mixed, err := dataset.NewBuilder().
		AddInts("i", []int64{math.MinInt64, -3, 0, 3, math.MaxInt64, 3}).
		AddFloats("f", []float64{math.NaN(), math.Copysign(0, -1), 0, 2.5, math.Inf(1), 2.5}).
		AddStrings("s", []string{"a\r\nb", "", "\xff", "z", "a\r\nb", "é"}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	const n = 70000 // distinct values past 1<<16: four-byte ranks
	perm := make([]int64, n)
	for i := range perm {
		perm[i] = int64(i*7919%n) - n/2
	}
	wide, err := dataset.NewBuilder().AddInts("w", perm).Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		tbl    *dataset.Table
		digest string
	}{
		{"mixed", mixed, "115 4375f3ab2e4efcedc02af69f5b2905847ffe279ed43ec614a1a066b54f7d7955"},
		{"flight-2000x8", gen.Flight(gen.FlightConfig{Rows: 2000, Attrs: 8, Seed: 42}), "34666 f5c462dad579d0fc57e7028e79bd6b813d9f7d9558694db1d5446f28a4a8ec97"},
		{"wide", wide, "350016 123b0aeeb7701d1f3e05230dcc371eaf5cb6d710674d24148dbf1fd4ea1dfb92"},
	} {
		body := encodeBody(t, &frame{T: "dataset", Dataset: tc.tbl})
		if got := fmt.Sprintf("%d %x", len(body), sha256.Sum256(body)); got != tc.digest {
			t.Errorf("%s: dataset frame is %s, want %s", tc.name, got, tc.digest)
		}
		back, err := decodeFrame(body)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if dataset.Fingerprint(back.Dataset) != dataset.Fingerprint(tc.tbl) {
			t.Errorf("%s: decoded frame changes the fingerprint", tc.name)
		}
	}
}
