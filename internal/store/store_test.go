package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"aod"
)

// trickyDataset exercises the type-fidelity corners of the CSV round trip: a
// float column whose values all happen to be integral (re-inference would
// flip it to int) and a string column whose values all look numeric
// (re-inference would flip it to int).
func trickyDataset(t *testing.T) *aod.Dataset {
	t.Helper()
	ds, err := aod.NewBuilder().
		AddFloats("ratio", []float64{1, 2, 4, 8}).
		AddStrings("code", []string{"01", "2", "10", "007"}).
		AddInts("n", []int64{4, 3, 2, 1}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func metaFor(name string, ds *aod.Dataset) DatasetMeta {
	fp := ds.Fingerprint()
	return DatasetMeta{
		ID:          fp[:12],
		Name:        name,
		Fingerprint: fp,
		Rows:        ds.NumRows(),
		Cols:        ds.NumCols(),
		Columns:     ds.ColumnNames(),
		Types:       ds.ColumnTypes(),
	}
}

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDatasetRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	ds := trickyDataset(t)
	meta := metaFor("tricky", ds)
	if err := s.PutDataset(meta, ds); err != nil {
		t.Fatal(err)
	}

	// A second store over the same directory — the restart — must list the
	// dataset and reload a payload with the identical fingerprint.
	s2 := mustOpen(t, dir)
	metas := s2.Datasets()
	if len(metas) != 1 {
		t.Fatalf("reopened store lists %d datasets, want 1", len(metas))
	}
	if metas[0].Name != "tricky" || metas[0].Fingerprint != meta.Fingerprint {
		t.Errorf("recovered meta %+v does not match stored %+v", metas[0], meta)
	}
	got, err := s2.LoadDataset(metas[0])
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != meta.Fingerprint {
		t.Errorf("reloaded fingerprint %s, want %s", got.Fingerprint(), meta.Fingerprint)
	}
	if types := got.ColumnTypes(); types[0] != "float" || types[1] != "string" || types[2] != "int" {
		t.Errorf("reloaded column types %v lost fidelity", types)
	}
}

func TestPutDatasetIsContentAddressed(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	ds := trickyDataset(t)
	if err := s.PutDataset(metaFor("a", ds), ds); err != nil {
		t.Fatal(err)
	}
	// Same content under a new name: one payload file, updated metadata.
	if err := s.PutDataset(metaFor("b", ds), ds); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(s.path(datasetsDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("%d payload files for one content, want 1", len(files))
	}
	if metas := s.Datasets(); len(metas) != 1 || metas[0].Name != "b" {
		t.Errorf("manifest = %+v, want single entry named b", metas)
	}
}

// TestPutDatasetRefusesUnserializableContent keeps its name from when CSV
// payloads had to refuse this content: CSV folds a quoted "\r\n" to "\n" on
// read, so the value could not round-trip. A columnar payload carries every
// string as its bytes, so the store now accepts it and it reloads unchanged
// across a reopen.
func TestPutDatasetRefusesUnserializableContent(t *testing.T) {
	ds, err := aod.NewBuilder().AddStrings("s", []string{"a\r\nb", "c"}).Build()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s := mustOpen(t, dir)
	meta := metaFor("cr", ds)
	if err := s.PutDataset(meta, ds); err != nil {
		t.Fatalf("PutDataset: %v", err)
	}
	s2 := mustOpen(t, dir)
	if metas := s2.Datasets(); len(metas) != 1 || metas[0].Fingerprint != meta.Fingerprint {
		t.Fatalf("reopened manifest = %+v, want the one dataset", metas)
	}
	got, err := s2.LoadDataset(meta)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := got.Value(0, "s"); err != nil || v != "a\r\nb" {
		t.Errorf("reloaded value = %q (err %v), want %q", v, err, "a\r\nb")
	}
	if got.Fingerprint() != meta.Fingerprint {
		t.Errorf("reloaded fingerprint %s, want %s", got.Fingerprint(), meta.Fingerprint)
	}
}

func TestReportRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	rep := &aod.Report{
		OCs:   []aod.OC{{Context: []string{"pos"}, A: "exp", B: "sal", Error: 0.1, Removals: 1, Level: 3, Score: 0.45}},
		Stats: aod.Stats{Rows: 9, Attrs: 3},
	}
	const key = "fp|{\"threshold\":0.1}"
	if err := s.PutReport(key, rep); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetReport("some other key"); ok {
		t.Error("GetReport returned a report for a key never stored")
	}

	s2 := mustOpen(t, dir)
	got, ok := s2.GetReport(key)
	if !ok {
		t.Fatal("report lost across reopen")
	}
	want, _ := json.Marshal(rep)
	have, _ := json.Marshal(got)
	if string(want) != string(have) {
		t.Errorf("report changed across round trip:\nwant %s\nhave %s", want, have)
	}
}

func TestCorruptReportIsQuarantinedNotFatal(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	const key = "k"
	if err := s.PutReport(key, &aod.Report{}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.reportPath(key), []byte("{torn write"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetReport(key); ok {
		t.Fatal("corrupt report served as valid")
	}
	if q := s.Quarantined(); q != 1 {
		t.Errorf("quarantined = %d, want 1", q)
	}
	if _, err := os.Stat(s.reportPath(key)); !os.IsNotExist(err) {
		t.Error("corrupt report file still live after quarantine")
	}
	ents, _ := os.ReadDir(s.path(quarantineDir))
	if len(ents) != 1 {
		t.Errorf("quarantine dir holds %d files, want 1", len(ents))
	}
	// A mismatched embedded key (e.g. a file restored to the wrong name) is
	// also quarantined, not served.
	if err := s.PutReport(key, &aod.Report{}); err != nil {
		t.Fatal(err)
	}
	env, _ := json.Marshal(reportEnvelope{Key: "different", Report: &aod.Report{}})
	if err := os.WriteFile(s.reportPath(key), env, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetReport(key); ok {
		t.Fatal("report with mismatched key served as valid")
	}
	if q := s.Quarantined(); q != 2 {
		t.Errorf("quarantined = %d, want 2", q)
	}
}

func TestCorruptDatasetIsQuarantinedNotFatal(t *testing.T) {
	good := trickyDataset(t).AppendColumnar(nil)
	// A payload that still decodes but to other content: the last rank of
	// the last column (n, ranks 3 2 1 0) becomes 1, so the column reads
	// 4 3 2 2 — caught only by the fingerprint check.
	tampered := bytes.Clone(good)
	tampered[len(tampered)-1] = 1
	if _, err := aod.DecodeColumnar(tampered); err != nil {
		t.Fatalf("tampered payload must still decode: %v", err)
	}
	for name, corrupt := range map[string]string{
		"garbage":          "not a csv at all \x00\xff",
		"truncated":        "ratio,code\n1,",
		"tampered":         "ratio,code,n\n1,01,4\n2,2,3\n4,10,2\n8,007,9\n",
		"columnar-cut":     string(good[:len(good)-3]),
		"columnar-altered": string(tampered),
	} {
		t.Run(name, func(t *testing.T) {
			s := mustOpen(t, t.TempDir())
			ds := trickyDataset(t)
			meta := metaFor("tricky", ds)
			if err := s.PutDataset(meta, ds); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(s.datasetPath(meta.Fingerprint), []byte(corrupt), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := s.LoadDataset(meta); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("LoadDataset error = %v, want ErrCorrupt", err)
			}
			if q := s.Quarantined(); q != 1 {
				t.Errorf("quarantined = %d, want 1", q)
			}
			if len(s.Datasets()) != 0 {
				t.Error("corrupt dataset still listed in manifest")
			}
			// Gone from the live name; a retry is a clean not-found.
			if _, err := s.LoadDataset(meta); !errors.Is(err, ErrNotFound) {
				t.Errorf("second load error = %v, want ErrNotFound", err)
			}
		})
	}
}

func TestCorruptManifestIsRecoveredFromPayloads(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	intDS, err := aod.NewBuilder().AddInts("a", []int64{3, 1, 2}).AddStrings("b", []string{"x", "y", "x"}).Build()
	if err != nil {
		t.Fatal(err)
	}
	strDS, err := aod.NewBuilder().AddStrings("s", []string{"p", "q", "r"}).Build()
	if err != nil {
		t.Fatal(err)
	}
	// Integral-valued floats would re-infer as ints from text; the payload
	// carries the kinds, so this one comes back too.
	floatDS, err := aod.NewBuilder().AddFloats("f", []float64{1, 2, 3}).Build()
	if err != nil {
		t.Fatal(err)
	}
	for name, ds := range map[string]*aod.Dataset{"ints": intDS, "strs": strDS, "floats": floatDS} {
		if err := s.PutDataset(metaFor(name, ds), ds); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("}{ not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	if got := s2.Recovered(); got != 3 {
		t.Errorf("recovered = %d, want 3", got)
	}
	metas := s2.Datasets()
	if len(metas) != 3 {
		t.Fatalf("recovered manifest lists %d datasets, want 3", len(metas))
	}
	sawFloat := false
	for _, m := range metas {
		ds, err := s2.LoadDataset(m)
		if err != nil {
			t.Errorf("recovered dataset %s does not load: %v", m.ID, err)
			continue
		}
		if m.Fingerprint != floatDS.Fingerprint() {
			continue
		}
		sawFloat = true
		if !slices.Equal(m.Types, []string{"float"}) || !slices.Equal(m.Columns, []string{"f"}) {
			t.Errorf("float dataset recovered as columns %v of kinds %v, want [f] of [float]", m.Columns, m.Types)
		}
		if ds.Fingerprint() != floatDS.Fingerprint() {
			t.Errorf("float dataset reloads with fingerprint %s, want %s", ds.Fingerprint(), floatDS.Fingerprint())
		}
	}
	if !sawFloat {
		t.Error("float dataset not recovered")
	}
	// The recovered manifest is durable: a third open needs no rescan.
	s3 := mustOpen(t, dir)
	if s3.Recovered() != 0 || len(s3.Datasets()) != 3 {
		t.Errorf("third open: recovered=%d datasets=%d, want 0 and 3", s3.Recovered(), len(s3.Datasets()))
	}
}

func TestPutDatasetHealsCorruptPayloadInPlace(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	ds := trickyDataset(t)
	meta := metaFor("heal", ds)
	if err := s.PutDataset(meta, ds); err != nil {
		t.Fatal(err)
	}
	// Corrupt the payload in place, then re-upload identical content: the
	// put must notice the bytes differ and rewrite, not trust the file name.
	if err := os.WriteFile(s.datasetPath(meta.Fingerprint), []byte("rot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.PutDataset(meta, ds); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadDataset(meta); err != nil {
		t.Fatalf("payload not healed by re-upload: %v", err)
	}
	if q := s.Quarantined(); q != 0 {
		t.Errorf("quarantined = %d, want 0 (healed before any load)", q)
	}
}

func TestOpenSweepsOrphanedTempFiles(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	orphan := s.path(tmpDir, "put-crashed")
	if err := os.WriteFile(orphan, []byte("half a dataset"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir)
	ents, err := os.ReadDir(s2.path(tmpDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Errorf("tmp dir holds %d files after reopen, want 0 (orphans swept)", len(ents))
	}
}

func TestAtomicWritesLeaveNoTempDebris(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	ds := trickyDataset(t)
	if err := s.PutDataset(metaFor("d", ds), ds); err != nil {
		t.Fatal(err)
	}
	if err := s.PutReport("k", &aod.Report{}); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(s.path(tmpDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Errorf("tmp dir holds %d files after successful writes, want 0", len(ents))
	}
}

// TestConcurrentStoreAccess hammers one store from many goroutines; run
// under -race it proves the locking discipline (CI does).
func TestConcurrentStoreAccess(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ds, err := aod.NewBuilder().
				AddInts("a", []int64{int64(g), 2, 3}).
				AddStrings("b", []string{"u", "v", "w"}).
				Build()
			if err != nil {
				t.Error(err)
				return
			}
			meta := metaFor(fmt.Sprintf("g%d", g), ds)
			for i := 0; i < 20; i++ {
				if err := s.PutDataset(meta, ds); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.LoadDataset(meta); err != nil {
					t.Error(err)
					return
				}
				key := fmt.Sprintf("key-%d-%d", g, i%3)
				if err := s.PutReport(key, &aod.Report{Stats: aod.Stats{Rows: g}}); err != nil {
					t.Error(err)
					return
				}
				s.GetReport(key)
				s.Datasets()
			}
		}(g)
	}
	wg.Wait()
	if got := len(s.Datasets()); got != 8 {
		t.Errorf("manifest lists %d datasets, want 8", got)
	}
	if q := s.Quarantined(); q != 0 {
		t.Errorf("quarantined = %d during clean concurrent use, want 0", q)
	}
}
