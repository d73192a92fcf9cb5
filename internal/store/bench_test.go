package store

import (
	"fmt"
	"os"
	"testing"

	"aod"
)

// benchShapes are the flight tables the service benchmark uploads: its
// small datasets and its wide ones.
var benchShapes = []struct{ rows, attrs int }{{2000, 8}, {12000, 18}}

// BenchmarkPutDataset measures persisting a dataset the store has not seen:
// encoding, the decode-and-fingerprint check, the durable write and the
// manifest update. The payload is removed between iterations, untimed, so
// every put writes.
func BenchmarkPutDataset(b *testing.B) {
	for _, sh := range benchShapes {
		ds := aod.Flight(sh.rows, sh.attrs, 42)
		b.Run(fmt.Sprintf("flight-%dx%d", sh.rows, sh.attrs), func(b *testing.B) {
			s, err := Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			meta := metaFor("bench", ds)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := s.PutDataset(meta, ds); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := os.Remove(s.datasetPath(meta.Fingerprint)); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkLoadDataset measures reloading a stored dataset — what a restart
// or an LRU re-residency pays per dataset: reading the payload, decoding it
// and verifying its fingerprint.
func BenchmarkLoadDataset(b *testing.B) {
	for _, sh := range benchShapes {
		ds := aod.Flight(sh.rows, sh.attrs, 42)
		b.Run(fmt.Sprintf("flight-%dx%d", sh.rows, sh.attrs), func(b *testing.B) {
			s, err := Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			meta := metaFor("bench", ds)
			if err := s.PutDataset(meta, ds); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.LoadDataset(meta); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
