package shard

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"aod/internal/dataset"
	"aod/internal/gen"
)

// TestDatasetFrameBytesUnchanged pins the dataset frame byte for byte: its
// three-byte header (magic, protocol version, frame type), and after it the
// columnar payload of package dataset. The payload digests are the lengths
// and SHA-256 digests of what the protocol shipped after the header before
// the frame carried that encoding, and what protocol 5 shipped; only the
// version byte changed since. The tables cover the one-, two- and four-byte
// rank widths and every column kind (NaN, -0, +Inf, "\r\n", invalid UTF-8).
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
		{"mixed", mixed, "112 d5aabc31f471534d0937dc8fdc56e73ddebbc940e5a144ba586d103c666a1768"},
		{"flight-2000x8", gen.Flight(gen.FlightConfig{Rows: 2000, Attrs: 8, Seed: 42}), "34663 00305f07b065e4f40a7f2bbcdd4ad1a16e016199b8cc6d796bacfc9299e96d00"},
		{"wide", wide, "350013 f35bfaf718ae0d900b5222c2bb4e15f6f1ba7bec25092e34693986767b39b8ee"},
	} {
		body := encodeBody(t, &frame{T: "dataset", Dataset: tc.tbl})
		if len(body) < 3 || body[0] != binMagic || body[1] != protoVersion || body[2] != binDataset {
			t.Fatalf("%s: dataset frame header is % x, want % x", tc.name, body[:min(3, len(body))],
				[]byte{binMagic, protoVersion, binDataset})
		}
		payload := body[3:]
		if got := fmt.Sprintf("%d %x", len(payload), sha256.Sum256(payload)); got != tc.digest {
			t.Errorf("%s: dataset payload is %s, want %s", tc.name, got, tc.digest)
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
