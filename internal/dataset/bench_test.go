package dataset_test

import (
	"bytes"
	"fmt"
	"testing"

	"aod/internal/dataset"
	"aod/internal/gen"
)

// uploadShapes are the flight tables the service benchmark uploads: its
// small datasets and its wide ones.
var uploadShapes = []struct{ rows, attrs int }{{2000, 8}, {12000, 18}}

// BenchmarkReadCSV measures the CSV edge reader — parsing, type inference
// and ranking — on the upload bodies of the service benchmark.
func BenchmarkReadCSV(b *testing.B) {
	for _, sh := range uploadShapes {
		var body bytes.Buffer
		if err := dataset.WriteCSV(&body, gen.Flight(gen.FlightConfig{Rows: sh.rows, Attrs: sh.attrs, Seed: 42})); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("flight-%dx%d", sh.rows, sh.attrs), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(body.Len()))
			for i := 0; i < b.N; i++ {
				if _, err := dataset.ReadCSV(bytes.NewReader(body.Bytes()), dataset.CSVOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// fingerprintSink keeps the benchmarked hash live.
var fingerprintSink string

// BenchmarkFingerprint measures the content hash that names an uploaded
// dataset, on the upload tables of the service benchmark. An upload pays it
// twice: at registration and when the stored copy is verified.
func BenchmarkFingerprint(b *testing.B) {
	for _, sh := range uploadShapes {
		tbl := gen.Flight(gen.FlightConfig{Rows: sh.rows, Attrs: sh.attrs, Seed: 42})
		b.Run(fmt.Sprintf("flight-%dx%d", sh.rows, sh.attrs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fingerprintSink = dataset.Fingerprint(tbl)
			}
		})
	}
}
