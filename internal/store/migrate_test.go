package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"aod"
)

// writeLegacyLayout writes dir as the earlier layout left it: each dataset
// as datasets/<fp>.csv rendered by WriteCSV, listed in manifest.json with
// its column types. It returns the metas in manifest order.
func writeLegacyLayout(t *testing.T, dir string, names []string, sets []*aod.Dataset) []DatasetMeta {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(dir, datasetsDir), 0o755); err != nil {
		t.Fatal(err)
	}
	m := manifestFile{Version: manifestVersion}
	for i, ds := range sets {
		meta := metaFor(names[i], ds)
		var buf bytes.Buffer
		if err := ds.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, datasetsDir, meta.Fingerprint+legacyDatasetExt), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		m.Datasets = append(m.Datasets, meta)
	}
	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	return m.Datasets
}

// TestLegacyPayloadsMigrateAtOpen opens a data directory in the earlier
// CSV layout: every listed payload is served with its fingerprint and
// column kinds, rewritten in the columnar encoding and its CSV removed, and
// a CSV payload that no longer verifies is quarantined and unlisted.
func TestLegacyPayloadsMigrateAtOpen(t *testing.T) {
	dir := t.TempDir()
	tricky := trickyDataset(t)
	flight := aod.Flight(600, 6, 3)
	doomed, err := aod.NewBuilder().AddInts("d", []int64{5, 6, 7}).Build()
	if err != nil {
		t.Fatal(err)
	}
	metas := writeLegacyLayout(t, dir, []string{"tricky", "flight", "doomed"}, []*aod.Dataset{tricky, flight, doomed})
	doomedCSV := filepath.Join(dir, datasetsDir, metas[2].Fingerprint+legacyDatasetExt)
	if err := os.WriteFile(doomedCSV, []byte("d\n5\n6\nseven\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	s := mustOpen(t, dir)
	if q := s.Quarantined(); q != 1 {
		t.Errorf("quarantined = %d, want 1 (the corrupt CSV payload)", q)
	}
	if _, err := os.Stat(doomedCSV); !os.IsNotExist(err) {
		t.Error("corrupt CSV payload still under its live name")
	}
	listed := s.Datasets()
	if len(listed) != 2 {
		t.Fatalf("migrated manifest lists %d datasets, want 2", len(listed))
	}
	for i, want := range []*aod.Dataset{tricky, flight} {
		meta := metas[i]
		if listed[i].Fingerprint != meta.Fingerprint || listed[i].Name != meta.Name {
			t.Errorf("entry %d = %+v, want %+v", i, listed[i], meta)
		}
		if _, err := os.Stat(filepath.Join(dir, datasetsDir, meta.Fingerprint+legacyDatasetExt)); !os.IsNotExist(err) {
			t.Errorf("%s: CSV payload not removed after migration", meta.Name)
		}
		onDisk, err := os.ReadFile(s.datasetPath(meta.Fingerprint))
		if err != nil {
			t.Fatalf("%s: no columnar payload after migration: %v", meta.Name, err)
		}
		if !bytes.Equal(onDisk, want.AppendColumnar(nil)) {
			t.Errorf("%s: migrated payload differs from the dataset's encoding", meta.Name)
		}
		got, err := s.LoadDataset(listed[i])
		if err != nil {
			t.Fatalf("%s: %v", meta.Name, err)
		}
		if got.Fingerprint() != meta.Fingerprint {
			t.Errorf("%s: reloaded fingerprint %s, want %s", meta.Name, got.Fingerprint(), meta.Fingerprint)
		}
	}

	// The migration ran once: a second open finds nothing left to do.
	s2 := mustOpen(t, dir)
	if q := s2.Quarantined(); q != 0 || len(s2.Datasets()) != 2 {
		t.Errorf("second open: quarantined=%d datasets=%d, want 0 and 2", q, len(s2.Datasets()))
	}
}

// TestLegacyMigrationResumesAfterCrash covers a crash between writing the
// columnar payload and removing the CSV one: the next Open verifies the CSV
// again, leaves the identical columnar bytes as they are and removes it;
// if the CSV copy has rotted meanwhile, it is quarantined and the verified
// columnar copy keeps the dataset listed.
func TestLegacyMigrationResumesAfterCrash(t *testing.T) {
	for _, rotted := range []bool{false, true} {
		dir := t.TempDir()
		ds := trickyDataset(t)
		metas := writeLegacyLayout(t, dir, []string{"tricky"}, []*aod.Dataset{ds})
		fp := metas[0].Fingerprint
		col := filepath.Join(dir, datasetsDir, fp+datasetExt)
		csv := filepath.Join(dir, datasetsDir, fp+legacyDatasetExt)
		if err := os.WriteFile(col, ds.AppendColumnar(nil), 0o644); err != nil {
			t.Fatal(err)
		}
		if rotted {
			if err := os.WriteFile(csv, []byte("rot"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s := mustOpen(t, dir)
		if _, err := os.Stat(csv); !os.IsNotExist(err) {
			t.Errorf("rotted=%v: CSV payload left behind", rotted)
		}
		if want := map[bool]uint64{false: 0, true: 1}[rotted]; s.Quarantined() != want {
			t.Errorf("rotted=%v: quarantined = %d, want %d", rotted, s.Quarantined(), want)
		}
		if len(s.Datasets()) != 1 {
			t.Fatalf("rotted=%v: %d datasets listed, want 1", rotted, len(s.Datasets()))
		}
		if _, err := s.LoadDataset(metas[0]); err != nil {
			t.Errorf("rotted=%v: %v", rotted, err)
		}
	}
}

// TestCorruptManifestRecoversLegacyPayloads: a manifest lost in the earlier
// layout is rebuilt the way that layout rebuilt it — CSV payloads whose
// inferred kinds reproduce their fingerprint — and those are then migrated.
// A dataset a crash left with both payloads is listed once.
func TestCorruptManifestRecoversLegacyPayloads(t *testing.T) {
	dir := t.TempDir()
	inferable, err := aod.NewBuilder().AddInts("a", []int64{3, 1, 2}).AddStrings("b", []string{"x", "y", "x"}).Build()
	if err != nil {
		t.Fatal(err)
	}
	halfway, err := aod.NewBuilder().AddStrings("s", []string{"p", "q"}).Build()
	if err != nil {
		t.Fatal(err)
	}
	metas := writeLegacyLayout(t, dir, []string{"ints", "halfway"}, []*aod.Dataset{inferable, halfway})
	if err := os.WriteFile(filepath.Join(dir, datasetsDir, metas[1].Fingerprint+datasetExt), halfway.AppendColumnar(nil), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("}{"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir)
	listed := s.Datasets()
	if s.Recovered() != 2 || len(listed) != 2 {
		t.Fatalf("recovered=%d manifest=%+v, want the two datasets once each", s.Recovered(), listed)
	}
	for _, m := range listed {
		if _, err := os.Stat(filepath.Join(dir, datasetsDir, m.Fingerprint+legacyDatasetExt)); !os.IsNotExist(err) {
			t.Errorf("%s: recovered legacy payload not migrated", m.ID)
		}
		if _, err := s.LoadDataset(m); err != nil {
			t.Error(err)
		}
	}
}
