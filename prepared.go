package aod

import (
	"aod/internal/core"
	"aod/internal/partition"
)

// PreparedDataset binds a dataset to its single-attribute partitions, built
// once and immutable afterwards — the cold-start state every discovery run
// over the dataset would otherwise rebuild. The partitions are marked shared,
// so one PreparedDataset is safe to hand to any number of concurrent
// discovery runs; the aodserver keeps a bounded, fingerprint-keyed cache of
// them (-partition-cache-bytes) so repeat jobs against a registered dataset —
// same data, different thresholds or options — skip partitioning entirely.
type PreparedDataset struct {
	d    *Dataset
	prep *core.PreparedTable
}

// Prepare builds the dataset's per-attribute partitions. The work is the same
// partitioning a discovery run performs on startup, paid once here instead of
// per run.
func (d *Dataset) Prepare() *PreparedDataset {
	return &PreparedDataset{d: d, prep: core.Prepare(d.tbl)}
}

// Dataset returns the dataset the partitions were built from. Because equal
// fingerprints guarantee identical discovery results, a cache holding a
// PreparedDataset by fingerprint may run discovery against this dataset in
// place of any other copy with the same fingerprint.
func (p *PreparedDataset) Dataset() *Dataset { return p.d }

// MemBytes reports the retained partition-buffer bytes — the accounting
// currency of a size-bounded prepared-dataset cache.
func (p *PreparedDataset) MemBytes() int64 { return p.prep.MemBytes() }

// PartitionArena is a size-capped partition-buffer pool shared across
// discovery runs: partition buffers one run's traversal drops are reused
// by the next instead of being reallocated, holding at most the configured
// byte budget. Safe for concurrent use by any number of runs.
type PartitionArena struct {
	a *partition.Arena
}

// NewPartitionArena returns an arena retaining at most maxBytes of partition
// buffers across runs (<= 0 disables retention accounting and degenerates to
// a GC-managed pool).
func NewPartitionArena(maxBytes int64) *PartitionArena {
	return &PartitionArena{a: partition.NewArenaLimit(maxBytes)}
}

// RetainedBytes reports the buffer bytes currently held for reuse.
func (a *PartitionArena) RetainedBytes() int64 { return a.a.RetainedBytes() }

// Warm bundles the cross-job state a discovery run may reuse
// (Options.Warm): prepared single-attribute partitions and a shared buffer
// arena. The zero value is a fully cold run. Warm state never changes
// results — only where partition bytes come from.
type Warm struct {
	// Prepared supplies the dataset's single-attribute partitions. It is
	// honored only when it was built from the very dataset being discovered
	// (pointer identity); a mismatched Prepared is ignored, not an error.
	Prepared *PreparedDataset
	// Arena, when non-nil, replaces the run's private partition arena with a
	// shared one, so intermediate partition buffers recycle across runs.
	Arena *PartitionArena
}
