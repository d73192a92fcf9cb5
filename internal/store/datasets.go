package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"

	"aod"
)

const (
	// datasetExt names payloads in the columnar encoding
	// (aod.Dataset.AppendColumnar).
	datasetExt = ".col"
	// legacyDatasetExt names the CSV payloads of the earlier layout, which
	// Open migrates (see migrateLegacyPayloads).
	legacyDatasetExt = ".csv"
)

// datasetPath is the content-addressed payload file for a fingerprint.
func (s *Store) datasetPath(fingerprint string) string {
	return s.path(datasetsDir, fingerprint+datasetExt)
}

// PutDataset persists the dataset payload (content-addressed by fingerprint,
// so re-uploads of identical content write no second copy) and upserts its
// manifest entry. The returned error means the dataset is NOT durable and
// callers should fail the registration rather than promise persistence.
func (s *Store) PutDataset(meta DatasetMeta, ds *aod.Dataset) error {
	if meta.Fingerprint == "" {
		return errors.New("store: dataset meta has no fingerprint")
	}
	if err := s.putPayload(meta.Fingerprint, ds); err != nil {
		return fmt.Errorf("store: dataset %s: %w", meta.ID, err)
	}
	return s.upsertDataset(meta)
}

// putPayload encodes ds, proves the bytes decode to content with the given
// fingerprint BEFORE anything is acknowledged — LoadDataset would otherwise
// quarantine the payload on first use after a restart — and writes them
// under the fingerprint's name.
func (s *Store) putPayload(fingerprint string, ds *aod.Dataset) error {
	data := ds.AppendColumnar(nil)
	back, err := aod.DecodeColumnar(data)
	if err != nil {
		return fmt.Errorf("encoded payload does not decode: %w", err)
	}
	if back.Fingerprint() != fingerprint {
		return errors.New("encoded payload does not reproduce the fingerprint")
	}
	// The file is content-addressed and the encoding deterministic, so
	// byte-identical content already on disk needs no write; anything else
	// there (in-place corruption of an earlier copy) is replaced — a
	// re-upload of the same content heals it.
	path := s.datasetPath(fingerprint)
	existing, rerr := os.ReadFile(path)
	if rerr == nil && bytes.Equal(existing, data) {
		return nil
	}
	if rerr != nil && !errors.Is(rerr, os.ErrNotExist) {
		return fmt.Errorf("probing payload: %w", rerr)
	}
	if err := s.writeFileAtomic(path, data); err != nil {
		return fmt.Errorf("writing payload: %w", err)
	}
	return nil
}

// LoadDataset reloads the payload for meta, decoding it and verifying that
// the decoded content re-derives meta.Fingerprint. A payload that fails to
// decode or verify is quarantined, dropped from the manifest, and reported
// as ErrCorrupt; a missing payload is ErrNotFound. Neither is fatal to the
// caller — the dataset is simply no longer served until re-uploaded.
func (s *Store) LoadDataset(meta DatasetMeta) (*aod.Dataset, error) {
	path := s.datasetPath(meta.Fingerprint)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		s.dropDatasetIfStillMissing(meta.Fingerprint, path)
		return nil, fmt.Errorf("%w: dataset %s", ErrNotFound, meta.ID)
	}
	if err != nil {
		return nil, fmt.Errorf("store: opening dataset %s: %w", meta.ID, err)
	}
	ds, derr := aod.DecodeColumnar(data)
	if derr != nil {
		s.condemnDataset(meta, path, data)
		return nil, fmt.Errorf("%w: dataset %s: %v", ErrCorrupt, meta.ID, derr)
	}
	if fp := ds.Fingerprint(); fp != meta.Fingerprint {
		s.condemnDataset(meta, path, data)
		return nil, fmt.Errorf("%w: dataset %s: content fingerprint %s does not match", ErrCorrupt, meta.ID, datasetID(fp))
	}
	return ds, nil
}

// condemnDataset quarantines a payload that failed verification and drops
// its manifest entry — unless the file no longer holds the bytes the caller
// read, meaning a concurrent re-upload already replaced the corrupt copy
// with a healed one that must survive.
func (s *Store) condemnDataset(meta DatasetMeta, path string, read []byte) {
	cur, err := os.ReadFile(path)
	if err == nil && !bytes.Equal(cur, read) {
		return // healed underneath us; the new copy stands
	}
	s.quarantine(path)
	s.dropDataset(meta.Fingerprint)
}

// migrateLegacyPayloads rewrites, once, every listed dataset whose payload
// is still a CSV file of the earlier layout. Each is read with the
// manifest's column types, verified against its fingerprint, written in the
// columnar encoding and only then removed, so a crash at any point leaves a
// verified copy under one of the two names and the next Open finishes the
// job. A CSV payload that fails to parse or verify is quarantined; its
// entry is dropped unless a columnar copy already exists. Only I/O errors
// fail the migration.
func (s *Store) migrateLegacyPayloads() error {
	for _, meta := range s.Datasets() {
		legacy := s.path(datasetsDir, meta.Fingerprint+legacyDatasetExt)
		data, err := os.ReadFile(legacy)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return fmt.Errorf("store: reading legacy payload %s: %w", meta.ID, err)
		}
		ds, perr := aod.ReadCSV(bytes.NewReader(data), aod.CSVOptions{Types: meta.Types})
		if perr != nil || ds.Fingerprint() != meta.Fingerprint {
			s.quarantine(legacy)
			if _, err := os.Stat(s.datasetPath(meta.Fingerprint)); err != nil {
				s.dropDataset(meta.Fingerprint)
			}
			continue
		}
		if err := s.putPayload(meta.Fingerprint, ds); err != nil {
			return fmt.Errorf("store: migrating dataset %s: %w", meta.ID, err)
		}
		if err := os.Remove(legacy); err != nil {
			return fmt.Errorf("store: removing migrated payload %s: %w", meta.ID, err)
		}
	}
	return nil
}
