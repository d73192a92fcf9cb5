// Package store is the disk persistence layer behind the discovery service:
// a content-addressed dataset store, a report store for completed job
// results, and a manifest snapshot of registry metadata, all under one data
// directory. It exists so that an aodserver restart keeps every uploaded
// dataset and every computed report — the substrate the ROADMAP's scaling
// items (sharding by fingerprint, replica routing) build on.
//
// On-disk layout:
//
//	<dir>/manifest.json        registry metadata snapshot (atomic rewrite)
//	<dir>/datasets/<fp>.col    dataset payloads named by content fingerprint
//	<dir>/reports/<h>.json     report envelopes named by SHA-256 of cache key
//	<dir>/quarantine/          corrupt files are moved here, never deleted
//	<dir>/tmp/                 staging area for atomic write-then-rename
//
// A dataset payload is the columnar encoding of aod.Dataset.AppendColumnar —
// the rank-encoded columns with their names, kinds and distinct values, the
// same bytes a shard worker receives — so a reload decodes ranks instead of
// parsing text, and every value round-trips. An earlier layout stored CSV
// as <fp>.csv; Open migrates such payloads once (see
// migrateLegacyPayloads).
//
// Every write is write-to-temp + fsync + rename, so a crash mid-write leaves
// at worst an orphan in tmp/, never a torn file under a live name. Every
// read verifies integrity (content fingerprint for datasets, embedded key
// for reports); a file that fails verification is quarantined — moved aside
// for post-mortem — and reported as absent or corrupt, never as a panic or
// a fatal startup error.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

const (
	datasetsDir   = "datasets"
	reportsDir    = "reports"
	quarantineDir = "quarantine"
	tmpDir        = "tmp"
	manifestName  = "manifest.json"
)

// ErrNotFound reports that the requested object has no file in the store.
var ErrNotFound = errors.New("store: not found")

// ErrCorrupt reports that an object's file failed integrity verification and
// has been quarantined.
var ErrCorrupt = errors.New("store: corrupt object quarantined")

// Store is a disk-backed object store rooted at one data directory. All
// methods are safe for concurrent use.
type Store struct {
	dir string

	// mu serializes manifest rewrites; payload files are content-addressed
	// and written atomically, so they need no lock.
	mu       sync.Mutex
	manifest manifestFile

	// gcMu serializes report-store GC scans; maxReportBytes <= 0 disables
	// the GC (see SetMaxReportBytes).
	gcMu           sync.Mutex
	maxReportBytes int64
	reportsEvicted atomic.Uint64

	quarantined atomic.Uint64
	recovered   int // datasets re-indexed by the manifest recovery scan

	// Group commit: concurrent writers stage temp files and queue them here;
	// one writer at a time becomes the commit leader and flushes the whole
	// queue under a single directory sync (see writeFileAtomic). cmu guards
	// queue and leading.
	cmu     sync.Mutex
	queue   []*commitReq
	leading bool

	groupCommits  atomic.Uint64 // commit batches flushed
	batchedWrites atomic.Uint64 // writes acknowledged across all batches
}

// commitReq is one staged write awaiting its group commit: the open temp
// file (written, not yet synced), the live name it publishes under, and the
// channel its writer blocks on until the batch it rode in is durable.
type commitReq struct {
	f    *os.File
	path string
	done chan error
}

// Open prepares the data directory (creating it and its subdirectories as
// needed), loads the manifest and migrates CSV payloads of the earlier
// layout. A corrupt manifest is quarantined and rebuilt by scanning the
// dataset files, so Open fails only on I/O errors, never on bad content.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty data directory")
	}
	s := &Store{dir: dir}
	for _, sub := range []string{"", datasetsDir, reportsDir, quarantineDir, tmpDir} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: preparing %s: %w", dir, err)
		}
	}
	// A crash mid-write orphans its temp file; no writer exists at Open, so
	// sweep them rather than leak disk across restarts.
	if ents, err := os.ReadDir(s.path(tmpDir)); err == nil {
		for _, e := range ents {
			os.Remove(s.path(tmpDir, e.Name()))
		}
	}
	if err := s.loadManifest(); err != nil {
		return nil, err
	}
	if err := s.migrateLegacyPayloads(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the data directory the store is rooted at.
func (s *Store) Dir() string { return s.dir }

// Quarantined returns the number of corrupt files this store instance has
// moved to the quarantine directory.
func (s *Store) Quarantined() uint64 { return s.quarantined.Load() }

// Recovered returns the number of datasets re-indexed from payload files
// after a corrupt manifest was quarantined at Open.
func (s *Store) Recovered() int { return s.recovered }

// path joins the data directory with relative elements.
func (s *Store) path(elem ...string) string {
	return filepath.Join(append([]string{s.dir}, elem...)...)
}

// writeFileAtomic publishes data under path via write-to-temp, fsync, and
// rename, so readers never observe a partially written file and a crash
// cannot tear an existing one. It returns only after the write is durable —
// file content synced, rename published, directory entry synced — so every
// acknowledged write survives a crash.
//
// The fsyncs are group-committed: the temp file is staged unsynced and
// queued, and one writer at a time drains the queue as commit leader,
// amortizing the per-batch directory sync (the dominant cost under
// concurrent report writes) across every queued write. A lone writer pays
// exactly the old sequence; a burst of writers shares one leader per batch.
func (s *Store) writeFileAtomic(path string, data []byte) error {
	f, err := os.CreateTemp(s.path(tmpDir), "put-*")
	if err != nil {
		return err
	}
	if _, werr := f.Write(data); werr != nil {
		name := f.Name()
		f.Close()
		os.Remove(name)
		return werr
	}
	req := &commitReq{f: f, path: path, done: make(chan error, 1)}
	s.cmu.Lock()
	s.queue = append(s.queue, req)
	lead := !s.leading
	if lead {
		s.leading = true
	}
	s.cmu.Unlock()
	if lead {
		s.commitLoop()
	}
	return <-req.done
}

// commitLoop drains the commit queue as batches until it is empty, then
// steps down. Writers that queued while a batch was flushing ride the next
// one — that accumulation is what makes the commit a group.
func (s *Store) commitLoop() {
	for {
		s.cmu.Lock()
		batch := s.queue
		s.queue = nil
		if len(batch) == 0 {
			s.leading = false
			s.cmu.Unlock()
			return
		}
		s.cmu.Unlock()
		s.commitBatch(batch)
	}
}

// commitBatch makes one queue drain durable: per-file sync + rename (a
// failure fails only that write), then one sync per distinct directory for
// the whole batch, then every writer is released. Acknowledgement strictly
// follows the directory sync — a write is never reported durable before its
// rename is.
func (s *Store) commitBatch(batch []*commitReq) {
	errs := make([]error, len(batch))
	for i, req := range batch {
		tmp := req.f.Name()
		werr := req.f.Sync()
		if cerr := req.f.Close(); werr == nil {
			werr = cerr
		}
		if werr == nil {
			werr = os.Rename(tmp, req.path)
		}
		if werr != nil {
			os.Remove(tmp)
			errs[i] = werr
		}
	}
	// Make the renames themselves durable: without a directory sync a new
	// entry may not survive power loss even though the file data would.
	// Best-effort — not every platform or filesystem supports fsync on a
	// directory handle, and a failure there must not fail a write the
	// journal will usually persist anyway.
	dirs := make(map[string]struct{}, 1)
	for i, req := range batch {
		if errs[i] != nil {
			continue
		}
		dirs[filepath.Dir(req.path)] = struct{}{}
	}
	for dir := range dirs {
		if d, derr := os.Open(dir); derr == nil {
			d.Sync()
			d.Close()
		}
	}
	s.groupCommits.Add(1)
	s.batchedWrites.Add(uint64(len(batch)))
	for i, req := range batch {
		req.done <- errs[i]
	}
}

// GroupCommits returns the number of commit batches flushed since Open.
func (s *Store) GroupCommits() uint64 { return s.groupCommits.Load() }

// BatchedWrites returns the number of writes acknowledged across all commit
// batches; BatchedWrites > GroupCommits means fsync batching has engaged.
func (s *Store) BatchedWrites() uint64 { return s.batchedWrites.Load() }

// quarantine moves the file aside into the quarantine directory under a
// timestamped name (so repeated quarantines of one path never collide) and
// counts it. It never deletes data: a corrupt file is evidence.
func (s *Store) quarantine(path string) {
	dst := s.path(quarantineDir,
		fmt.Sprintf("%s.%d", filepath.Base(path), time.Now().UnixNano()))
	if err := os.Rename(path, dst); err != nil {
		// Could not move it (e.g. already gone); leave it and carry on —
		// callers already treat the object as absent.
		return
	}
	s.quarantined.Add(1)
}

// readJSONFile reads and unmarshals path into v. A missing file returns
// ErrNotFound; undecodable content quarantines the file and returns
// ErrCorrupt.
func (s *Store) readJSONFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return ErrNotFound
	}
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		s.quarantine(path)
		return fmt.Errorf("%w: %s: %v", ErrCorrupt, filepath.Base(path), err)
	}
	return nil
}
