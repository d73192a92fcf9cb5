// Package service turns one-shot AOD discovery into a long-running,
// concurrent, cancellable subsystem: a dataset registry with content
// fingerprinting, a bounded-queue job manager running discovery on a fixed
// worker pool with cooperative cancellation (aod.DiscoverContext), and an
// LRU result cache keyed by (dataset fingerprint, canonicalized options) so
// identical re-submissions — including concurrent ones, via an in-flight
// single-flight table — validate exactly once. The aodserver command exposes
// it over an HTTP JSON API (see NewHandler).
package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"aod"
	"aod/internal/store"
	"aod/internal/telemetry"
)

// Config sizes a Service. The zero value selects sensible defaults.
type Config struct {
	// Workers is the discovery worker-pool size (default 2).
	Workers int
	// QueueDepth bounds the number of jobs waiting for a worker; Submit
	// fails with ErrQueueFull beyond it (default 64; negative = unbounded).
	QueueDepth int
	// CacheSize is the result-cache capacity in reports (default 128;
	// negative disables the in-memory cache).
	CacheSize int
	// MaxDatasets bounds the registry (default 256; negative = unbounded).
	// With a Store it bounds the in-memory resident set instead: uploads are
	// never refused, the least recently used payload is evicted to disk.
	MaxDatasets int
	// MaxJobHistory bounds retained job records: when exceeded, the oldest
	// terminal jobs (and their reports) are evicted so a long-running server
	// cannot grow without bound (default 1024; negative = unbounded).
	MaxJobHistory int
	// Store, when non-nil, makes the service durable: datasets and completed
	// reports are written through to disk, registry metadata is recovered on
	// startup, and evicted/cold state reloads lazily on use. Nil preserves
	// the purely in-memory behavior.
	Store *store.Store
	// ShardPool, when non-nil, slices each job's lattice levels across the
	// pool's aodworker processes (aodserver -workers). Results are identical
	// to local execution — the sharded executor's contract — so the result
	// cache and in-flight dedup are oblivious to where a job actually ran,
	// and a degraded pool only slows jobs down. Per-worker health and
	// assignment counts surface in Stats.Shards.
	ShardPool *aod.ShardPool
	// SerialCostMax is the admission work estimate (rows × cols × levels, see
	// aod.EstimateWork) at or below which a job runs on the serial in-process
	// executor — below it, pool fan-out costs more in coordination than it
	// buys (default DefaultSerialCostMax; negative = 0, no serial tier).
	// Jobs that ask for explicit Parallelism > 1 are never forced serial.
	SerialCostMax int64
	// ShardCostMin is the estimate at or above which a job is dispatched to
	// the shard pool (when ShardPool is set). Between SerialCostMax and
	// ShardCostMin jobs run on the in-process pool: mid-range work
	// parallelizes well locally but would pay shard round-trips per lattice
	// level for nothing (default DefaultShardCostMin; negative = 0, shard
	// everything). The pool's own ShardPoolOptions.WorkQuantum then sizes
	// each sharded job's worker fan-out.
	ShardCostMin int64
	// PartitionCacheBytes bounds the cross-job partition memoization state:
	// a fingerprint-keyed cache of prepared single-attribute partitions plus
	// a shared partition-buffer arena, each retaining at most this many
	// bytes. Repeat jobs against a registered dataset — same data, different
	// options — then skip cold-start partitioning (default 64 MiB; negative
	// disables warm runs entirely). Results are identical either way.
	PartitionCacheBytes int64
	// MaxQueueWait bounds how long cost-based scheduling may delay a queued
	// job: a job queued longer than this is picked next regardless of its
	// cost, so a flood of small jobs cannot starve batch work indefinitely
	// (default 1m; negative disables aging).
	MaxQueueWait time.Duration
	// Metrics, when non-nil, is the registry the service's counters, gauges,
	// and latency histograms live in — shared with other subsystems (shard
	// pool, HTTP layer) so one /metrics scrape covers the process. Nil gets
	// the service a private registry; /stats works either way.
	Metrics *telemetry.Registry
	// Peers lists the base URLs of replica aodservers sharing this service's
	// result-cache key space (aodserver -peers). On a local cache miss the
	// flight leader asks each peer's GET /peer/report for the key before
	// validating: a report computed on any replica is then served through
	// every replica without recomputation — the router's idempotent-failover
	// contract depends on it. Empty disables peering.
	Peers []string
	// PeerTimeout bounds each peer report probe (default 250ms). A slow or
	// dead peer must never cost more than this before the job simply
	// validates locally.
	PeerTimeout time.Duration

	// Test seams (same-package tests only): runGate runs when a worker picks
	// the job up, before discovery starts; levelHook runs after each level
	// snapshot is published. Both may block — that is their point: they make
	// scheduling order and streaming pace deterministic under test. now
	// substitutes the queue-aging clock.
	runGate   func(*Job)
	levelHook func(*Job)
	now       func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0 // unbounded
	}
	if c.CacheSize == 0 {
		c.CacheSize = 128
	}
	if c.CacheSize < 0 {
		c.CacheSize = 0
	}
	if c.MaxDatasets == 0 {
		c.MaxDatasets = 256
	}
	if c.MaxDatasets < 0 {
		c.MaxDatasets = 0
	}
	if c.MaxJobHistory == 0 {
		c.MaxJobHistory = 1024
	}
	if c.MaxJobHistory < 0 {
		c.MaxJobHistory = 0
	}
	if c.SerialCostMax == 0 {
		c.SerialCostMax = DefaultSerialCostMax
	}
	if c.SerialCostMax < 0 {
		c.SerialCostMax = 0 // no serial tier
	}
	if c.ShardCostMin == 0 {
		c.ShardCostMin = DefaultShardCostMin
	}
	if c.ShardCostMin < 0 {
		c.ShardCostMin = 0 // shard everything
	}
	if c.PartitionCacheBytes == 0 {
		c.PartitionCacheBytes = DefaultPartitionCacheBytes
	}
	if c.PartitionCacheBytes < 0 {
		c.PartitionCacheBytes = 0 // warm path disabled
	}
	if c.MaxQueueWait == 0 {
		c.MaxQueueWait = time.Minute
	}
	if c.MaxQueueWait < 0 {
		c.MaxQueueWait = 0 // aging disabled
	}
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = 250 * time.Millisecond
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("service: closed")

// ErrDraining is returned by Submit while the service drains: it finishes
// the jobs it already accepted but admits no new ones (HTTP 503 with an
// honest Retry-After — clients and routers should go elsewhere).
var ErrDraining = errors.New("service: draining, not admitting jobs")

// Service is the discovery service: registry + job manager + result cache.
// All methods are safe for concurrent use.
type Service struct {
	cfg      Config
	registry *Registry
	cache    *resultCache
	peers    *peerClient // nil without Config.Peers
	// prepared and arena are the cross-job partition memoization state (nil
	// when PartitionCacheBytes disables it): prepared caches each dataset's
	// single-attribute partitions by fingerprint, arena recycles partition
	// buffers across jobs. Both are byte-bounded by PartitionCacheBytes.
	prepared *preparedCache
	arena    *aod.PartitionArena
	start    time.Time
	draining atomic.Bool

	mu       sync.Mutex
	notEmpty *sync.Cond // signaled when pending gains a job or on Close
	closed   bool
	jobs     map[string]*Job
	order    []string // submission order, for stable listings
	// pending holds jobs waiting for a worker (bounded by QueueDepth),
	// ordered by estimated cost so small jobs are not starved by large ones
	// submitted ahead of them (see jobQueue).
	pending jobQueue
	flights map[string]*flight
	nextID  uint64

	wg sync.WaitGroup

	// reg is the metrics registry (Config.Metrics or a private one); met
	// holds the resolved handles. The registry is the single source of truth
	// for the service counters: /stats and /metrics read the same series.
	reg *telemetry.Registry
	met serviceMetrics
}

// serviceMetrics is the service's resolved metric handles. Counters and
// gauges are updated from worker goroutines with single atomic operations.
type serviceMetrics struct {
	jobsSubmitted  *telemetry.Counter
	jobsDone       *telemetry.Counter
	jobsFailed     *telemetry.Counter
	jobsCanceled   *telemetry.Counter
	cacheHits      *telemetry.Counter
	cacheMisses    *telemetry.Counter
	validationRuns *telemetry.Counter
	validationNs   *telemetry.Counter
	discoveryNs    *telemetry.Counter
	inFlight       *telemetry.Gauge
	waiting        *telemetry.Gauge
	// Peer result-cache traffic: hits are reports adopted from a replica
	// instead of recomputed, served counts this replica answering peers.
	peerHits   *telemetry.Counter
	peerMisses *telemetry.Counter
	peerServed *telemetry.Counter

	// Adaptive executor routing: one counter per executor the router picked
	// for a validation run (cache hits and in-flight joins route nothing).
	routedSerial  *telemetry.Counter
	routedPool    *telemetry.Counter
	routedSharded *telemetry.Counter

	// Partition memoization: hits count validation runs that reused cached
	// prepared partitions (cold-start partitioning skipped), misses count
	// runs that prepared them cold (and admitted the result to the cache).
	partitionHits   *telemetry.Counter
	partitionMisses *telemetry.Counter

	// Job end-to-end latency by class: cache hits answer in microseconds,
	// small and large validation runs in milliseconds to minutes — one
	// histogram would bury the classes' tails in each other.
	latCacheHit *telemetry.Histogram
	latSmall    *telemetry.Histogram
	latLarge    *telemetry.Histogram
	queueWait   *telemetry.Histogram
	levelValid  *telemetry.Histogram
}

// SmallJobCost splits the small and large job classes by the scheduler's
// admission estimate (rows × cols × levels). 1<<24 ≈ 16.8M puts a
// 5k-row × 10-attr full-lattice job (500K) firmly in "small" and anything
// approaching the paper's flight-scale datasets in "large". Exported so the
// load harness (internal/load) can pick workload shapes that land in the
// intended aod_job_seconds{class=...} histogram.
const SmallJobCost = 1 << 24

// DefaultSerialCostMax and DefaultShardCostMin are the adaptive executor
// router's default thresholds in the same cost currency (rows × cols ×
// levels, aod.EstimateWork). 1<<20 ≈ 1.05M keeps a 5k-row × 10-attr
// full-lattice job (500K) serial — measured faster than pool fan-out at that
// size — while 1<<22 ≈ 4.2M sends a 50k-row × 10-attr job (5M) to the shard
// pool, past the crossover where columnar shipping amortizes and pipelined
// dispatch beats local workers.
const (
	DefaultSerialCostMax = 1 << 20
	DefaultShardCostMin  = 1 << 22
)

// DefaultPartitionCacheBytes is the default byte budget of the cross-job
// partition cache and its shared buffer arena (Config.PartitionCacheBytes).
// 64 MiB holds the prepared singles of dozens of paper-scale datasets
// (a 50k-row × 10-attr table's singles retain ≈ 4 MB).
const DefaultPartitionCacheBytes = 64 << 20

func (s *Service) initMetrics() {
	r := s.reg
	m := &s.met
	m.jobsSubmitted = r.Counter("aod_jobs_submitted_total", "", "Jobs accepted by Submit.")
	m.jobsDone = r.Counter("aod_jobs_done_total", "", "Jobs completed with a report.")
	m.jobsFailed = r.Counter("aod_jobs_failed_total", "", "Jobs completed with an error.")
	m.jobsCanceled = r.Counter("aod_jobs_canceled_total", "", "Jobs canceled before or during the run.")
	m.cacheHits = r.Counter("aod_cache_hits_total", "", "Jobs answered by the result cache or an in-flight run.")
	m.cacheMisses = r.Counter("aod_cache_misses_total", "", "Jobs that required a validation run.")
	m.validationRuns = r.Counter("aod_validation_runs_total", "", "Discovery runs actually executed.")
	m.validationNs = r.Counter("aod_validation_ns_total", "", "Cumulative validator time of complete runs, in nanoseconds.")
	m.discoveryNs = r.Counter("aod_discovery_ns_total", "", "Cumulative end-to-end discovery time of complete runs, in nanoseconds.")
	m.inFlight = r.Gauge("aod_jobs_in_flight", "", "Jobs currently holding a worker.")
	m.waiting = r.Gauge("aod_jobs_waiting", "", "Jobs parked on an identical in-flight run.")
	m.peerHits = r.Counter("aod_peer_report_hits_total", "", "Reports adopted from a peer replica's cache instead of recomputed.")
	m.peerMisses = r.Counter("aod_peer_report_misses_total", "", "Peer cache probes that found no report anywhere.")
	m.peerServed = r.Counter("aod_peer_reports_served_total", "", "Cached reports served to peer replicas.")
	m.routedSerial = r.Counter("aod_jobs_routed_total", telemetry.Label("executor", "serial"), "Validation runs by executor the adaptive router picked.")
	m.routedPool = r.Counter("aod_jobs_routed_total", telemetry.Label("executor", "pool"), "Validation runs by executor the adaptive router picked.")
	m.routedSharded = r.Counter("aod_jobs_routed_total", telemetry.Label("executor", "sharded"), "Validation runs by executor the adaptive router picked.")
	m.partitionHits = r.Counter("aod_partition_cache_hits_total", "", "Validation runs that reused cached prepared partitions (cold-start partitioning skipped).")
	m.partitionMisses = r.Counter("aod_partition_cache_misses_total", "", "Validation runs that prepared partitions cold.")
	r.GaugeFunc("aod_partition_cache_bytes", "", "Bytes retained by the prepared-partition cache and the shared partition arena.", func() int64 {
		_, b, _ := s.prepared.stats()
		if s.arena != nil {
			b += s.arena.RetainedBytes()
		}
		return b
	})
	m.latCacheHit = r.Histogram("aod_job_seconds", telemetry.Label("class", "cachehit"), "Job end-to-end latency by class.")
	m.latSmall = r.Histogram("aod_job_seconds", telemetry.Label("class", "small"), "Job end-to-end latency by class.")
	m.latLarge = r.Histogram("aod_job_seconds", telemetry.Label("class", "large"), "Job end-to-end latency by class.")
	m.queueWait = r.Histogram("aod_queue_wait_seconds", "", "Time jobs spent queued before a worker picked them up.")
	m.levelValid = r.Histogram("aod_level_validate_seconds", "", "Per-lattice-level validation time.")
	r.GaugeFunc("aod_jobs_queued", "", "Jobs waiting for a worker.", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(s.pending.Len())
	})
	r.GaugeFunc("aod_datasets", "", "Datasets registered.", func() int64 { return int64(s.registry.Len()) })
}

// New starts a Service with cfg's worker pool running.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:      cfg,
		registry: NewRegistry(cfg.MaxDatasets, cfg.Store),
		cache:    newResultCache(cfg.CacheSize, cfg.Store),
		start:    time.Now(),
		jobs:     make(map[string]*Job),
		flights:  make(map[string]*flight),
		reg:      cfg.Metrics,
	}
	s.prepared = newPreparedCache(cfg.PartitionCacheBytes)
	if cfg.PartitionCacheBytes > 0 {
		s.arena = aod.NewPartitionArena(cfg.PartitionCacheBytes)
	}
	if s.reg == nil {
		s.reg = telemetry.NewRegistry()
	}
	s.initMetrics()
	if len(cfg.Peers) > 0 {
		s.peers = newPeerClient(cfg.Peers, cfg.PeerTimeout)
	}
	s.pending.maxWait = cfg.MaxQueueWait
	s.pending.now = cfg.now
	s.notEmpty = sync.NewCond(&s.mu)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Registry exposes the dataset registry.
func (s *Service) Registry() *Registry { return s.registry }

// BeginDrain flips the service unready: Submit fails with ErrDraining (503)
// and /healthz reports draining, but jobs already admitted keep their
// workers and every read endpoint keeps answering. Idempotent. The intended
// shutdown sequence is BeginDrain → WaitIdle → http.Server.Shutdown → Close,
// so a router sees the replica go unready one probe before it stops serving.
func (s *Service) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain was called.
func (s *Service) Draining() bool { return s.draining.Load() }

// WaitIdle blocks until no job is queued, running, or parked on an in-flight
// run — the all-admitted-work-finished point of a drain — or until ctx
// expires, returning ctx.Err() in that case.
func (s *Service) WaitIdle(ctx context.Context) error {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		s.mu.Lock()
		queued := s.pending.Len()
		s.mu.Unlock()
		if queued == 0 && s.met.inFlight.Value() == 0 && s.met.waiting.Value() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// QueueAge returns how long the oldest queued job has been waiting for a
// worker (0 when nothing is queued) — the input to the Retry-After hint.
func (s *Service) QueueAge() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.pending.oldest()
	if old == nil {
		return 0
	}
	if age := s.cfg.now().Sub(old.created); age > 0 {
		return age
	}
	return 0
}

// MaxQueueWait exposes the configured queue-aging bound (0 = disabled).
func (s *Service) MaxQueueWait() time.Duration { return s.cfg.MaxQueueWait }

// RetryAfterSeconds derives an honest Retry-After hint (whole seconds) from
// the age of the oldest queued job. The heuristic: a queue whose head has
// already waited T will take on the order of T to drain its head again, so
// retrying sooner than T/2 mostly burns requests — but the hint is clamped
// to [1s, bound] (bound = maxWait when positive, else one minute) so clients
// always get a positive, finite signal no matter how pathological the queue.
// The same derivation backs the service's queue-full 503, its draining 503,
// and the router's shed path.
func RetryAfterSeconds(queueAge, maxWait time.Duration) int {
	bound := maxWait
	if bound <= 0 {
		bound = time.Minute
	}
	if bound < time.Second {
		bound = time.Second
	}
	hint := queueAge / 2
	if hint > bound {
		hint = bound
	}
	// Ceiling in whole seconds, never below 1 (Retry-After: 0 means "now",
	// which a saturated queue cannot honestly promise).
	secs := int((hint + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// retryAfterSeconds is the instance hint for the service's own 503 paths.
func (s *Service) retryAfterSeconds() int {
	return RetryAfterSeconds(s.QueueAge(), s.cfg.MaxQueueWait)
}

// Metrics exposes the metrics registry backing /stats and /metrics.
func (s *Service) Metrics() *telemetry.Registry { return s.reg }

// Close cancels every live job, stops the workers, and waits for them to
// drain. Submit fails with ErrClosed afterwards.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	live := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		live = append(live, j)
	}
	s.notEmpty.Broadcast()
	s.mu.Unlock()
	for _, j := range live {
		j.cancel()
	}
	s.wg.Wait()
}

// Stats is a point-in-time snapshot of the service counters, served by
// GET /stats.
type Stats struct {
	Datasets int `json:"datasets"`
	// DatasetsResident counts datasets whose payload is held in memory; the
	// rest are on disk and reload lazily (equal to Datasets without a Store).
	DatasetsResident int    `json:"datasetsResident"`
	JobsSubmitted    uint64 `json:"jobsSubmitted"`
	JobsDone         uint64 `json:"jobsDone"`
	JobsFailed       uint64 `json:"jobsFailed"`
	JobsCanceled     uint64 `json:"jobsCanceled"`
	JobsInFlight     int64  `json:"jobsInFlight"`
	// JobsWaiting counts jobs parked on an identical in-flight run — in
	// state "running" but holding no worker.
	JobsWaiting   int64  `json:"jobsWaiting"`
	JobsQueued    int    `json:"jobsQueued"`
	CacheHits     uint64 `json:"cacheHits"`
	CacheMisses   uint64 `json:"cacheMisses"`
	CacheSize     int    `json:"cacheSize"`
	CacheCapacity int    `json:"cacheCapacity"`
	// CacheDiskHits counts cache hits answered by the persisted report store
	// rather than memory — e.g. every first re-submission after a restart.
	CacheDiskHits  uint64 `json:"cacheDiskHits"`
	CacheEvictions uint64 `json:"cacheEvictions"`
	// Persistent reports whether a Store backs the service. Quarantined and
	// PersistErrors are its health counters: corrupt files moved aside, and
	// report write-throughs that failed (all zero without a Store).
	// ReportEvictions counts report files deleted by the disk-budget GC.
	Persistent      bool   `json:"persistent"`
	Quarantined     uint64 `json:"quarantined"`
	PersistErrors   uint64 `json:"persistErrors"`
	ReportEvictions uint64 `json:"reportEvictions,omitempty"`
	// GroupCommits and BatchedWrites expose the store's fsync batching:
	// commit batches flushed vs writes acknowledged across them.
	// BatchedWrites > GroupCommits means group commit is engaging under
	// concurrent write load.
	GroupCommits   uint64 `json:"groupCommits,omitempty"`
	BatchedWrites  uint64 `json:"batchedWrites,omitempty"`
	ValidationRuns uint64 `json:"validationRuns"`
	// Partition memoization (the cross-job warm path): hits count validation
	// runs that reused cached prepared partitions, misses count cold
	// preparations; bytes is the retained cache + shared-arena footprint.
	PartitionCacheHits      uint64 `json:"partitionCacheHits"`
	PartitionCacheMisses    uint64 `json:"partitionCacheMisses"`
	PartitionCacheEntries   int    `json:"partitionCacheEntries"`
	PartitionCacheBytes     int64  `json:"partitionCacheBytes"`
	PartitionCacheEvictions uint64 `json:"partitionCacheEvictions,omitempty"`
	// JobsRouted* count validation runs by the executor the adaptive router
	// picked (all three stay zero only when no job ever validates).
	JobsRoutedSerial  uint64        `json:"jobsRoutedSerial"`
	JobsRoutedPool    uint64        `json:"jobsRoutedPool"`
	JobsRoutedSharded uint64        `json:"jobsRoutedSharded"`
	ValidationTime    time.Duration `json:"validationTimeNs"`
	DiscoveryTime     time.Duration `json:"discoveryTimeNs"`
	Workers           int           `json:"workers"`
	QueueDepth        int           `json:"queueDepth"`
	Uptime            time.Duration `json:"uptimeNs"`
	// Shards reports per-worker health and assignment counts when a shard
	// pool backs job execution (aodserver -workers); absent otherwise.
	Shards []aod.ShardWorkerStatus `json:"shards,omitempty"`
	// Draining reports a server that has stopped admitting jobs (SIGTERM
	// received, in-flight work finishing).
	Draining bool `json:"draining,omitempty"`
	// Peer result-cache traffic (aodserver -peers): PeerHits counts reports
	// adopted from a replica instead of recomputed, PeerServed counts this
	// replica answering peers' probes. Zero without peers.
	Peers      int    `json:"peers,omitempty"`
	PeerHits   uint64 `json:"peerHits,omitempty"`
	PeerServed uint64 `json:"peerServed,omitempty"`
}

// Stats snapshots the service counters through the metrics registry — the
// same series /metrics scrapes. The read order makes the snapshot coherent
// where it matters: terminal counters (done/failed/canceled) are read before
// the submitted counter, and Submit increments the submitted counter before
// the job becomes runnable, so the invariant
// done + failed + canceled ≤ submitted holds in every snapshot no matter how
// many jobs complete mid-read. (The previous field-by-field read taken in an
// arbitrary order could observe a fast job's completion before its
// submission.)
func (s *Service) Stats() Stats {
	size, capacity, evictions := s.cache.stats()
	s.mu.Lock()
	queued := s.pending.Len()
	s.mu.Unlock()
	done := s.met.jobsDone.Value()
	failed := s.met.jobsFailed.Value()
	canceled := s.met.jobsCanceled.Value()
	st := Stats{
		Datasets:          s.registry.Len(),
		DatasetsResident:  s.registry.Resident(),
		JobsSubmitted:     s.met.jobsSubmitted.Value(),
		JobsDone:          done,
		JobsFailed:        failed,
		JobsCanceled:      canceled,
		JobsInFlight:      s.met.inFlight.Value(),
		JobsWaiting:       s.met.waiting.Value(),
		JobsQueued:        queued,
		CacheHits:         s.met.cacheHits.Value(),
		CacheMisses:       s.met.cacheMisses.Value(),
		CacheSize:         size,
		CacheCapacity:     capacity,
		CacheEvictions:    evictions,
		ValidationRuns:    s.met.validationRuns.Value(),
		JobsRoutedSerial:  s.met.routedSerial.Value(),
		JobsRoutedPool:    s.met.routedPool.Value(),
		JobsRoutedSharded: s.met.routedSharded.Value(),
		ValidationTime:    time.Duration(s.met.validationNs.Value()),
		DiscoveryTime:     time.Duration(s.met.discoveryNs.Value()),
		Workers:           s.cfg.Workers,
		QueueDepth:        s.cfg.QueueDepth,
		Uptime:            time.Since(s.start),
	}
	pe, pb, pev := s.prepared.stats()
	if s.arena != nil {
		pb += s.arena.RetainedBytes()
	}
	st.PartitionCacheHits = s.met.partitionHits.Value()
	st.PartitionCacheMisses = s.met.partitionMisses.Value()
	st.PartitionCacheEntries = pe
	st.PartitionCacheBytes = pb
	st.PartitionCacheEvictions = pev
	st.CacheDiskHits = s.cache.diskHits.Load()
	st.PersistErrors = s.cache.persistErrors.Load()
	st.Draining = s.Draining()
	st.Peers = len(s.cfg.Peers)
	st.PeerHits = s.met.peerHits.Value()
	st.PeerServed = s.met.peerServed.Value()
	if s.cfg.ShardPool != nil {
		st.Shards = s.cfg.ShardPool.Workers()
	}
	if s.cfg.Store != nil {
		st.Persistent = true
		st.Quarantined = s.cfg.Store.Quarantined()
		st.ReportEvictions = s.cfg.Store.ReportsEvicted()
		st.GroupCommits = s.cfg.Store.GroupCommits()
		st.BatchedWrites = s.cfg.Store.BatchedWrites()
	}
	return st
}
