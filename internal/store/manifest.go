package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"aod"
)

// DatasetMeta is the durable registry metadata for one stored dataset — the
// manifest entry plus everything needed to verify its payload (the
// Fingerprint is re-derived from the reloaded table and must match). The
// payload carries its own column kinds; Types also reads the earlier
// layout's CSV payloads losslessly while Open migrates them.
type DatasetMeta struct {
	ID          string    `json:"id"`
	Name        string    `json:"name,omitempty"`
	Fingerprint string    `json:"fingerprint"`
	Rows        int       `json:"rows"`
	Cols        int       `json:"cols"`
	Columns     []string  `json:"columns"`
	Types       []string  `json:"types"`
	CreatedAt   time.Time `json:"createdAt"`
}

// manifestFile is the JSON snapshot written to manifest.json.
type manifestFile struct {
	Version  int           `json:"version"`
	Datasets []DatasetMeta `json:"datasets"`
}

const manifestVersion = 1

// Datasets returns the manifest's dataset metadata in registration order.
func (s *Store) Datasets() []DatasetMeta {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]DatasetMeta, len(s.manifest.Datasets))
	copy(out, s.manifest.Datasets)
	return out
}

// loadManifest reads manifest.json at Open. A missing manifest starts empty;
// a corrupt one is quarantined and rebuilt from the dataset payload files.
func (s *Store) loadManifest() error {
	path := s.path(manifestName)
	var m manifestFile
	err := s.readJSONFile(path, &m)
	switch {
	case errors.Is(err, ErrNotFound):
		s.manifest = manifestFile{Version: manifestVersion}
		return nil
	case errors.Is(err, ErrCorrupt):
		return s.recoverManifest()
	case err != nil:
		return fmt.Errorf("store: reading manifest: %w", err)
	}
	// Drop entries that cannot possibly reload (schema drift, hand edits);
	// their payload files stay on disk and are picked up again if the same
	// content is re-uploaded.
	kept := m.Datasets[:0]
	for _, d := range m.Datasets {
		if d.Fingerprint != "" && len(d.Columns) == len(d.Types) {
			kept = append(kept, d)
		}
	}
	m.Datasets = kept
	m.Version = manifestVersion
	s.manifest = m
	return nil
}

// saveManifestLocked rewrites manifest.json atomically. Caller holds s.mu.
func (s *Store) saveManifestLocked() error {
	data, err := json.MarshalIndent(&s.manifest, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encoding manifest: %w", err)
	}
	if err := s.writeFileAtomic(s.path(manifestName), append(data, '\n')); err != nil {
		return fmt.Errorf("store: writing manifest: %w", err)
	}
	return nil
}

// recoverManifest rebuilds the manifest by scanning the dataset payload
// files after the manifest itself was quarantined. A columnar payload
// carries its column names and kinds, so each <fp>.col is re-indexed
// whenever it decodes to content whose fingerprint matches its file name. A
// CSV payload of the earlier layout carries no kinds: it is parsed with
// type inference and re-indexed only if that reproduces its fingerprint,
// which a column the inference would re-type (integral floats, numeric
// strings) prevents. Files that do not verify are left in place unlisted —
// re-uploading the same content restores them.
func (s *Store) recoverManifest() error {
	s.manifest = manifestFile{Version: manifestVersion}
	entries, err := os.ReadDir(s.path(datasetsDir))
	if err != nil {
		return fmt.Errorf("store: scanning datasets for recovery: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		ds, fp := s.readPayloadForRecovery(e.Name())
		if ds == nil || ds.Fingerprint() != fp {
			continue
		}
		meta := DatasetMeta{
			ID:          datasetID(fp),
			Fingerprint: fp,
			Rows:        ds.NumRows(),
			Cols:        ds.NumCols(),
			Columns:     ds.ColumnNames(),
			Types:       ds.ColumnTypes(),
		}
		if info, ierr := e.Info(); ierr == nil {
			meta.CreatedAt = info.ModTime().UTC()
		}
		s.manifest.Datasets = append(s.manifest.Datasets, meta)
	}
	// Deterministic listing order after recovery. A crash mid-migration can
	// leave both payloads of one dataset; list it once.
	sort.Slice(s.manifest.Datasets, func(i, j int) bool {
		return s.manifest.Datasets[i].Fingerprint < s.manifest.Datasets[j].Fingerprint
	})
	s.manifest.Datasets = slices.CompactFunc(s.manifest.Datasets, func(a, b DatasetMeta) bool {
		return a.Fingerprint == b.Fingerprint
	})
	s.recovered = len(s.manifest.Datasets)
	return s.saveManifestLocked()
}

// readPayloadForRecovery parses one payload file by its extension and
// returns it with the fingerprint its name claims; nil if it does not parse.
func (s *Store) readPayloadForRecovery(name string) (*aod.Dataset, string) {
	path := s.path(datasetsDir, name)
	if fp, ok := strings.CutSuffix(name, datasetExt); ok {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, ""
		}
		ds, err := aod.DecodeColumnar(data)
		if err != nil {
			return nil, ""
		}
		return ds, fp
	}
	if fp, ok := strings.CutSuffix(name, legacyDatasetExt); ok {
		ds, err := aod.ReadCSVFile(path, aod.CSVOptions{})
		if err != nil {
			return nil, ""
		}
		return ds, fp
	}
	return nil, ""
}

// upsertDataset replaces or appends the manifest entry for meta.Fingerprint
// and persists the manifest.
func (s *Store) upsertDataset(meta DatasetMeta) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	replaced := false
	for i, d := range s.manifest.Datasets {
		if d.Fingerprint == meta.Fingerprint {
			s.manifest.Datasets[i] = meta
			replaced = true
			break
		}
	}
	if !replaced {
		s.manifest.Datasets = append(s.manifest.Datasets, meta)
	}
	return s.saveManifestLocked()
}

// dropDataset removes the manifest entry for the fingerprint (used after its
// payload is quarantined) and persists the manifest.
func (s *Store) dropDataset(fingerprint string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropDatasetLocked(fingerprint)
}

// dropDatasetIfStillMissing drops the manifest entry only if the payload
// file is still absent under the manifest lock — a concurrent re-upload may
// have re-persisted it between the caller's failed read and now, and that
// acknowledged-durable registration must not be erased.
func (s *Store) dropDatasetIfStillMissing(fingerprint, path string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := os.Stat(path); err == nil {
		return // resurrected; the new payload stands
	}
	s.dropDatasetLocked(fingerprint)
}

func (s *Store) dropDatasetLocked(fingerprint string) {
	for i, d := range s.manifest.Datasets {
		if d.Fingerprint == fingerprint {
			s.manifest.Datasets = append(s.manifest.Datasets[:i], s.manifest.Datasets[i+1:]...)
			// Best effort: the entry is already gone in memory; a failed
			// rewrite resurfaces it only until the next successful save.
			_ = s.saveManifestLocked()
			return
		}
	}
}

// datasetID derives the public dataset id from a fingerprint, matching the
// service registry's convention (first 12 hex digits).
func datasetID(fingerprint string) string {
	if len(fingerprint) < 12 {
		return fingerprint
	}
	return fingerprint[:12]
}
