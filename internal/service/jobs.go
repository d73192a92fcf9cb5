package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"aod"
	"aod/internal/telemetry"
)

// JobState is the lifecycle state of a discovery job.
type JobState string

const (
	// JobQueued: accepted, waiting for a worker.
	JobQueued JobState = "queued"
	// JobRunning: a worker is validating (or waiting on an identical
	// in-flight run).
	JobRunning JobState = "running"
	// JobDone: completed with a report.
	JobDone JobState = "done"
	// JobFailed: completed with an error.
	JobFailed JobState = "failed"
	// JobCanceled: canceled before or during the run.
	JobCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// ErrQueueFull is returned by Submit when the job queue is saturated —
// the service's backpressure signal (HTTP 503).
var ErrQueueFull = errors.New("service: job queue is full")

// ErrNoJob is returned when a job id is unknown.
var ErrNoJob = errors.New("service: no such job")

// ErrJobFinished is returned by Cancel on a job already in a terminal state.
var ErrJobFinished = errors.New("service: job already finished")

// ErrInvalidOptions is returned by Submit when the options fail validation
// against the target dataset's schema (HTTP 400).
var ErrInvalidOptions = errors.New("service: invalid options")

// Job is one discovery submission moving through the lifecycle
// queued → running → done | failed | canceled.
type Job struct {
	id        string
	datasetID string
	opts      aod.Options
	key       string
	ctx       context.Context
	cancel    context.CancelFunc
	// seq is the admission sequence number — the priority queue's tie-break,
	// so equal-cost jobs stay FIFO. heapIdx is maintained by jobHeap while
	// the job is queued (-1 otherwise).
	seq     uint64
	heapIdx int
	// trace records the job's span tree (GET /jobs/{id}/trace); rootSpan is
	// the job-lifetime span, queueSpan covers admission → worker pickup.
	// initialCost is the admission work estimate, frozen for latency
	// classification (j.cost is refined downward while running).
	trace       *telemetry.Trace
	rootSpan    *telemetry.ActiveSpan
	queueSpan   *telemetry.ActiveSpan
	initialCost int64

	mu       sync.Mutex
	state    JobState
	waiting  bool // running, but parked on an identical in-flight run (no worker held)
	cacheHit bool
	err      error
	report   *aod.Report
	created  time.Time
	started  time.Time
	finished time.Time
	// cost is the scheduler's work estimate: rows × cols × levels at
	// submission, refined down to the remaining work by each level snapshot
	// while running (it is never read by the queue after the job leaves it).
	cost int64
	// partial and progress hold the latest level snapshot of a running job;
	// subs are the live stream subscribers (see stream.go).
	partial  *aod.Report
	progress *aod.Progress
	subs     []chan StreamEvent
}

// JobView is the JSON-serializable snapshot of a job.
type JobView struct {
	ID        string `json:"id"`
	DatasetID string `json:"datasetId"`
	// Options are the job's effective options: server-side normalization
	// (parallelism clamped to the host, no-op MaxLevel folded to 0) is
	// reflected here, so the view shows what actually runs.
	Options aod.Options `json:"options"`
	State   JobState    `json:"state"`
	// CacheHit marks a job served from the result cache or an identical
	// in-flight run, without a validation run of its own.
	CacheHit   bool       `json:"cacheHit"`
	Error      string     `json:"error,omitempty"`
	CreatedAt  time.Time  `json:"createdAt"`
	StartedAt  *time.Time `json:"startedAt,omitempty"`
	FinishedAt *time.Time `json:"finishedAt,omitempty"`
	// CostEstimate is the scheduler's current work estimate (rows × cols ×
	// levels still to explore): the submission estimate while queued, shrinking
	// per completed level while running, 0 once terminal.
	CostEstimate int64 `json:"costEstimate,omitempty"`
	// Progress and Partial expose the latest completed-level snapshot of a
	// running job: Partial is a coherent report of every dependency found in
	// the levels processed so far. Both are nil before the first level
	// completes and on terminal jobs (whose Report is authoritative).
	Progress *aod.Progress `json:"progress,omitempty"`
	Partial  *aod.Report   `json:"partial,omitempty"`
	Report   *aod.Report   `json:"report,omitempty"`
}

// view snapshots the job; the report is attached only when requested (job
// listings stay light).
func (j *Job) view(includeReport bool) JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:        j.id,
		DatasetID: j.datasetID,
		Options:   j.opts,
		State:     j.state,
		CacheHit:  j.cacheHit,
		CreatedAt: j.created,
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
	}
	if !j.state.Terminal() {
		v.CostEstimate = j.cost
	}
	if includeReport && j.state == JobDone {
		v.Report = j.report
	}
	if includeReport && j.state == JobRunning {
		v.Progress = j.progress
		v.Partial = j.partial
	}
	return v
}

// errNoJobf wraps ErrNoJob with the offending id.
func errNoJobf(id string) error {
	return fmt.Errorf("%w: %q", ErrNoJob, id)
}

// Submit queues a discovery job for the registered dataset and returns its
// initial view. It never blocks: a saturated queue fails fast with
// ErrQueueFull so callers can apply backpressure upstream.
func (s *Service) Submit(datasetID string, opts aod.Options) (JobView, error) {
	// Draining is checked before anything else: an unready replica answers
	// every submission with the same 503, not a mix of 404s and 503s
	// depending on what it still has registered.
	if s.Draining() {
		return JobView{}, ErrDraining
	}
	// Info, not Get: validation needs only the schema, so a submission must
	// not force a disk-evicted payload back into memory — the worker loads
	// it when the job actually runs.
	info, err := s.registry.Info(datasetID)
	if err != nil {
		return JobView{}, err
	}
	// Reject invalid configurations up front — this also guarantees every
	// cache/flight key corresponds to a runnable configuration, so jobs
	// sharing a key genuinely share an outcome.
	if err := opts.Validate(info.Cols); err != nil {
		return JobView{}, fmt.Errorf("%w: %v", ErrInvalidOptions, err)
	}
	// Clamp client-supplied parallelism to the host: one request must not be
	// able to spawn an unbounded number of goroutines.
	if maxPar := runtime.GOMAXPROCS(0); opts.Parallelism > maxPar {
		opts.Parallelism = maxPar
	}
	// A MaxLevel at or beyond the column count is no bound at all — fold it
	// to 0 so provably identical configurations share one cache/flight key.
	if opts.MaxLevel >= info.Cols {
		opts.MaxLevel = 0
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		datasetID: datasetID,
		opts:      opts,
		key:       cacheKey(info.Fingerprint, opts),
		ctx:       ctx,
		cancel:    cancel,
		heapIdx:   -1,
		state:     JobQueued,
		created:   time.Now().UTC(),
		// The scheduler's size estimate: small jobs overtake large ones in
		// the priority queue from the moment they are admitted.
		cost: aod.EstimateWork(info.Rows, info.Cols, opts.MaxLevel),
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cancel()
		return JobView{}, ErrClosed
	}
	if s.cfg.QueueDepth > 0 && s.pending.Len() >= s.cfg.QueueDepth {
		s.mu.Unlock()
		cancel()
		return JobView{}, ErrQueueFull
	}
	s.nextID++
	j.id = fmt.Sprintf("job-%d", s.nextID)
	j.seq = s.nextID
	j.initialCost = j.cost
	j.trace = telemetry.NewTrace(j.id)
	j.rootSpan = j.trace.Start(0, "job")
	j.queueSpan = j.trace.StartUnder(j.rootSpan, "queue-wait")
	// Incremented before the queue push makes the job runnable: a worker can
	// otherwise complete the job (incrementing the done counter) before the
	// submitted counter moves, and a concurrent Stats() snapshot would count
	// more terminal jobs than submitted ones.
	s.met.jobsSubmitted.Inc()
	s.pending.push(j)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.pruneHistoryLocked()
	s.notEmpty.Signal()
	s.mu.Unlock()

	return j.view(false), nil
}

// pruneHistoryLocked evicts the oldest terminal job records (and their
// reports) while over the MaxJobHistory bound, so an always-on server's job
// history cannot grow without limit. Live (queued/running) jobs are never
// evicted. The scan stops as soon as the excess is consumed — in the steady
// state (oldest job terminal, excess 1) that is a single step, keeping
// Submit O(1). Caller holds s.mu.
func (s *Service) pruneHistoryLocked() {
	if s.cfg.MaxJobHistory <= 0 || len(s.jobs) <= s.cfg.MaxJobHistory {
		return
	}
	excess := len(s.jobs) - s.cfg.MaxJobHistory
	var keptLive []string
	i := 0
	for ; i < len(s.order) && excess > 0; i++ {
		id := s.order[i]
		j := s.jobs[id]
		j.mu.Lock()
		terminal := j.state.Terminal()
		j.mu.Unlock()
		if terminal {
			delete(s.jobs, id)
			excess--
		} else {
			keptLive = append(keptLive, id)
		}
	}
	if len(keptLive) == 0 {
		s.order = s.order[i:]
		return
	}
	s.order = append(keptLive, s.order[i:]...)
}

// Job returns the current view of the job, including its report once done.
func (s *Service) Job(id string) (JobView, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobView{}, errNoJobf(id)
	}
	return j.view(true), nil
}

// Jobs lists all jobs in submission order, without reports.
func (s *Service) Jobs() []JobView {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobView, len(jobs))
	for i, j := range jobs {
		out[i] = j.view(false)
	}
	return out
}

// Cancel cancels the job. A queued job is finalized immediately; a running
// job has its context canceled and reaches the canceled state as soon as the
// discovery engine observes it (within one validation's latency), freeing
// the worker. Canceling a finished job returns ErrJobFinished.
func (s *Service) Cancel(id string) (JobView, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobView{}, errNoJobf(id)
	}
	j.mu.Lock()
	switch {
	case j.state.Terminal():
		j.mu.Unlock()
		return j.view(true), ErrJobFinished
	case j.state == JobQueued:
		j.state = JobCanceled
		j.finished = time.Now().UTC()
		j.closeSubsLocked()
		s.met.jobsCanceled.Inc()
		j.endSpansLocked()
		j.mu.Unlock()
		// Remove the job from the pending queue immediately so canceled
		// jobs free their slot (and stop exerting backpressure) without
		// waiting for a worker to drain them.
		s.mu.Lock()
		s.pending.remove(j)
		s.mu.Unlock()
	case j.waiting:
		// Parked on an in-flight run with no worker attached: finalize here;
		// the flight leader skips already-terminal waiters when settling.
		j.state = JobCanceled
		j.finished = time.Now().UTC()
		j.closeSubsLocked()
		s.met.jobsCanceled.Inc()
		j.endSpansLocked()
		j.mu.Unlock()
	default:
		j.mu.Unlock()
	}
	j.cancel()
	return j.view(false), nil
}

// worker drains the pending queue — cheapest job first — until Close
// empties it.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for s.pending.Len() == 0 && !s.closed {
			s.notEmpty.Wait()
		}
		j := s.pending.pop()
		s.mu.Unlock()
		if j == nil { // closed and drained
			return
		}
		s.runJob(j)
	}
}

// errParked is compute's sentinel: the job was registered as a waiter on an
// identical in-flight run and released its worker; the flight leader will
// finalize it in settleWaiter.
var errParked = errors.New("service: job parked on in-flight run")

// endSpansLocked closes the job's queue and root spans at a terminal
// transition (idempotent — End is once-only). Caller holds j.mu.
func (j *Job) endSpansLocked() {
	j.queueSpan.End()
	j.rootSpan.End()
}

// observeJobLatency records the job's end-to-end latency in the class
// histogram: cache hits separately from validation runs, which split into
// small and large by the admission cost estimate.
func (s *Service) observeJobLatency(j *Job, cacheHit bool, d time.Duration) {
	switch {
	case cacheHit:
		s.met.latCacheHit.Observe(d)
	case j.initialCost < SmallJobCost:
		s.met.latSmall.Observe(d)
	default:
		s.met.latLarge.Observe(d)
	}
}

// runJob drives one job through running to a terminal state.
func (s *Service) runJob(j *Job) {
	j.mu.Lock()
	if j.state != JobQueued { // canceled while waiting
		j.mu.Unlock()
		return
	}
	j.state = JobRunning
	j.started = time.Now().UTC()
	s.met.queueWait.Observe(j.started.Sub(j.created))
	j.queueSpan.End()
	j.mu.Unlock()

	s.met.inFlight.Add(1)
	rep, fromCache, err := s.compute(j)
	s.met.inFlight.Add(-1)
	if err == errParked {
		return // the worker is free; the flight leader finalizes the job
	}

	j.mu.Lock()
	j.finished = time.Now().UTC()
	switch {
	case j.ctx.Err() != nil || (err == nil && rep.Stats.Canceled):
		// The submitter canceled: the partial result is discarded. (A
		// cache/flight hit that raced the cancel still cancels — the user's
		// intent wins over the free result.)
		j.state = JobCanceled
		s.met.jobsCanceled.Inc()
	case err != nil:
		j.state = JobFailed
		j.err = err
		s.met.jobsFailed.Inc()
	default:
		j.state = JobDone
		j.report = rep
		j.cacheHit = fromCache
		s.met.jobsDone.Inc()
		s.observeJobLatency(j, fromCache, j.finished.Sub(j.created))
	}
	j.closeSubsLocked()
	j.endSpansLocked()
	j.mu.Unlock()
	j.cancel() // release the context's resources
}

// flight is one in-progress validation run. Identical concurrent jobs park
// on it as waiters — releasing their workers — and are settled by the
// leader when the run finishes.
type flight struct {
	rep *aod.Report
	err error
	// shareable marks a complete result (or deterministic error) that
	// waiters may adopt; canceled/timed-out partials are not shareable and
	// waiters are requeued.
	shareable bool
	waiters   []*Job
}

// compute produces the job's report: from the result cache, or by validating
// as a flight leader. A job that finds an identical run already in flight
// parks on it (returning errParked) instead of blocking its worker. The
// boolean reports whether the result arrived without a validation run of its
// own — the service-level definition of a cache hit.
func (s *Service) compute(j *Job) (*aod.Report, bool, error) {
	// Cache before payload: j.key was derived at Submit from metadata
	// alone, so a hit — memory or persisted report store — is served
	// without paging the (possibly disk-evicted, possibly even corrupt)
	// dataset payload into memory at all.
	lookup := j.trace.StartUnder(j.rootSpan, "cache-lookup")
	rep, ok := s.cache.get(j.key)
	lookup.Attr("hit", boolAttr(ok))
	lookup.End()
	if ok {
		s.met.cacheHits.Inc()
		return rep, true, nil
	}
	load := j.trace.StartUnder(j.rootSpan, "dataset-load")
	ds, _, err := s.registry.Get(j.datasetID)
	load.End()
	if err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	if f, inFlight := s.flights[j.key]; inFlight {
		if j.opts.TimeLimit > 0 {
			// A time-limited job must honor its own deadline, which the
			// in-flight run does not know about: run independently instead
			// of parking (its complete result is still shared via the
			// cache, keyed without the limit).
			s.mu.Unlock()
			rep, err := s.validate(j, ds)
			return rep, false, err
		}
		f.waiters = append(f.waiters, j)
		j.mu.Lock()
		j.waiting = true
		j.mu.Unlock()
		// Incremented before s.mu is released: the leader could otherwise
		// settle (and decrement for) this waiter first, sending the gauge
		// negative.
		s.met.waiting.Add(1)
		s.mu.Unlock()
		return nil, false, errParked
	}
	// Re-check the cache under the lock: between the miss above and here
	// the previous leader may have published its result and retired its
	// flight. Memory tier only — no disk I/O while holding s.mu (the disk
	// tier was already probed by the miss above).
	if rep, ok := s.cache.getMem(j.key); ok {
		s.mu.Unlock()
		s.met.cacheHits.Inc()
		return rep, true, nil
	}
	f := &flight{}
	s.flights[j.key] = f
	s.mu.Unlock()

	// Leader: before paying for a validation run, ask the peer replicas for
	// the key — a router failover or rebalance may have landed a job whose
	// report another replica already computed. An adopted report is a cache
	// hit in every sense that matters (no validation run, written through to
	// the local cache so the next identical job is answered here), which is
	// the idempotency contract the front door's retry policy leans on.
	fromPeer := false
	if peerRep, ok := s.peerFetch(j); ok {
		s.cache.put(j.key, peerRep)
		s.met.cacheHits.Inc()
		s.met.peerHits.Inc()
		rep, err, fromPeer = peerRep, nil, true
	} else {
		// The one validation run for the key while the flight lives.
		rep, err = s.validate(j, ds)
	}
	f.rep, f.err = rep, err
	f.shareable = err != nil || (!rep.Stats.Canceled && !rep.Stats.TimedOut)
	s.mu.Lock()
	delete(s.flights, j.key)
	waiters := f.waiters
	f.waiters = nil
	s.mu.Unlock()
	for _, w := range waiters {
		s.settleWaiter(w, f)
	}
	return rep, fromPeer, err
}

// executorChoice names the three execution tiers the adaptive router picks
// between. They are result-identical (the executor equivalence contract);
// only latency differs with job size.
type executorChoice int

const (
	execSerial executorChoice = iota
	execPool
	execSharded
)

// pickExecutor routes a validation run to the executor its admission work
// estimate (rows × cols × levels) predicts is fastest: serial for tiny jobs
// where any fan-out is pure overhead, the in-process pool for the mid-range,
// and the shard pool past ShardCostMin where columnar shipping amortizes.
// Jobs asking for explicit Parallelism > 1 are never downgraded to serial.
func (s *Service) pickExecutor(j *Job) executorChoice {
	cost := j.initialCost
	if s.cfg.ShardPool != nil && cost >= s.cfg.ShardCostMin {
		return execSharded
	}
	if cost > s.cfg.SerialCostMax || j.opts.Parallelism > 1 {
		return execPool
	}
	return execSerial
}

// warmFor assembles the job's warm state: the shared partition arena plus —
// when the partition cache is enabled — the dataset's prepared partitions,
// cached by content fingerprint. On a miss the partitions are prepared here
// (the same work a cold run would do at startup, paid once) and admitted for
// every later job over the same content. The boolean reports a cache hit —
// the job about to run will skip cold-start partitioning entirely.
func (s *Service) warmFor(j *Job, ds *aod.Dataset) (aod.Warm, bool) {
	var warm aod.Warm
	if s.arena != nil {
		warm.Arena = s.arena
	}
	if s.prepared == nil {
		return warm, false
	}
	info, err := s.registry.Info(j.datasetID)
	if err != nil {
		return warm, false // deregistered mid-run: run cold
	}
	if p, ok := s.prepared.get(info.Fingerprint); ok {
		s.met.partitionHits.Inc()
		warm.Prepared = p
		return warm, true
	}
	s.met.partitionMisses.Inc()
	p := ds.Prepare()
	s.prepared.put(info.Fingerprint, p)
	warm.Prepared = p
	return warm, false
}

// validate runs discovery for the job — publishing a partial report and a
// progress event at every level boundary — updating the run counters and
// publishing complete results to the cache.
func (s *Service) validate(j *Job, ds *aod.Dataset) (*aod.Report, error) {
	s.met.cacheMisses.Inc()
	s.met.validationRuns.Inc()
	if gate := s.cfg.runGate; gate != nil {
		gate(j)
	}
	onLevel := func(p aod.Progress, partial *aod.Report) {
		s.met.levelValid.Observe(p.LevelValidation)
		j.publishProgress(p, partial)
		if hook := s.cfg.levelHook; hook != nil {
			hook(j)
		}
	}
	// Warm state before the discover span: a prepared-partition cache hit
	// means the run skips cold-start partitioning; a miss pays it here once,
	// for every later job over the same content. The prepared copy
	// substitutes for the registry's dataset object — equal fingerprints
	// guarantee identical results, so the swap is invisible to callers.
	prepSpan := j.trace.StartUnder(j.rootSpan, "prepare-partitions")
	warm, warmHit := s.warmFor(j, ds)
	if warm.Prepared != nil {
		ds = warm.Prepared.Dataset()
	}
	prepSpan.Attr("partitionWarm", boolAttr(warmHit))
	prepSpan.End()
	// The discovery pipeline picks the trace up from the context and parents
	// its partition-build and per-level spans (and, under a shard pool, the
	// per-slice RPC and stitched worker spans) beneath this one.
	span := j.trace.StartUnder(j.rootSpan, "discover")
	ctx := telemetry.NewContext(j.ctx, j.trace, span.ID())
	// All executors are result-identical by the executor equivalence
	// contract, so cache keys and in-flight dedup need not know which one
	// ran the job — the router trades only latency, never answers. The warm
	// state holds for all three tiers: the sharded coordinator runs its
	// local fallback on the same prepared singles a local run validates
	// against. The run copy's handles are the service's, whatever the
	// submitter set.
	opts := j.opts
	opts.OnLevel, opts.Warm, opts.ShardPool = onLevel, warm, nil
	switch s.pickExecutor(j) {
	case execSharded:
		s.met.routedSharded.Inc()
		opts.ShardPool = s.cfg.ShardPool
	case execPool:
		s.met.routedPool.Inc()
		if opts.Parallelism <= 1 {
			opts.Parallelism = runtime.GOMAXPROCS(0)
		}
	default:
		s.met.routedSerial.Inc()
		opts.Parallelism = 0
	}
	rep, err := aod.DiscoverContext(ctx, ds, opts)
	span.End()
	if err == nil && !rep.Stats.Canceled && !rep.Stats.TimedOut {
		s.met.validationNs.Add(uint64(rep.Stats.ValidationTime))
		s.met.discoveryNs.Add(uint64(rep.Stats.TotalTime))
		// Publish to the cache before retiring the flight (in the leader
		// path) so a new arrival always finds one of the two.
		s.cache.put(j.key, rep)
	}
	return rep, err
}

// settleWaiter finalizes a job that parked on the finished flight: adopt a
// shareable outcome as a cache hit, or requeue (at the front) for a fresh
// attempt when the leader was canceled or timed out. Already-terminal
// waiters (canceled while parked) are left as they are.
func (s *Service) settleWaiter(w *Job, f *flight) {
	s.met.waiting.Add(-1)
	w.mu.Lock()
	if w.state.Terminal() {
		w.mu.Unlock()
		return
	}
	w.waiting = false
	if w.ctx.Err() != nil {
		w.state = JobCanceled
		w.finished = time.Now().UTC()
		w.closeSubsLocked()
		w.endSpansLocked()
		w.mu.Unlock()
		s.met.jobsCanceled.Inc()
		return
	}
	if !f.shareable {
		w.state = JobQueued
		w.mu.Unlock()
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			w.mu.Lock()
			w.state = JobCanceled
			w.finished = time.Now().UTC()
			w.closeSubsLocked()
			w.endSpansLocked()
			w.mu.Unlock()
			s.met.jobsCanceled.Inc()
			return
		}
		// Requeued with its original admission seq and cost: among equal-cost
		// jobs the waiter still precedes everything admitted after it.
		s.pending.push(w)
		s.notEmpty.Signal()
		s.mu.Unlock()
		return
	}
	w.finished = time.Now().UTC()
	if f.err != nil {
		// Deterministic config error — identical for any job with this key.
		w.state = JobFailed
		w.err = f.err
		w.closeSubsLocked()
		w.endSpansLocked()
		w.mu.Unlock()
		s.met.jobsFailed.Inc()
	} else {
		w.state = JobDone
		w.report = f.rep
		w.cacheHit = true
		w.closeSubsLocked()
		w.endSpansLocked()
		s.observeJobLatency(w, true, w.finished.Sub(w.created))
		w.mu.Unlock()
		s.met.jobsDone.Inc()
		s.met.cacheHits.Inc()
	}
	w.cancel()
}

// boolAttr renders a boolean as a span attribute value.
func boolAttr(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// JobTrace returns the job's span tree — the GET /jobs/{id}/trace body.
// Spans still open (a running job's discover span, say) are absent until
// they finish; committed children of open spans surface as roots.
func (s *Service) JobTrace(id string) (telemetry.TraceJSON, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return telemetry.TraceJSON{}, errNoJobf(id)
	}
	return j.trace.Tree(), nil
}
