package service

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"aod"
)

// smallDataset is the paper's 9-row employee table — fast to validate.
func smallDataset(t *testing.T) *aod.Dataset {
	t.Helper()
	ds, err := aod.NewBuilder().
		AddStrings("pos", []string{"secr", "secr", "secr", "mngr", "mngr", "mngr", "direc", "direc", "direc"}).
		AddInts("exp", []int64{2, 3, 4, 4, 5, 6, 6, 7, 8}).
		AddInts("sal", []int64{45, 50, 55, 70, 75, 80, 100, 110, 120}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// slowDataset is random data wide and tall enough that discovery with the
// iterative validator runs for seconds — long enough to cancel mid-run.
func slowDataset(t *testing.T, rows, cols int) *aod.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	b := aod.NewBuilder()
	for c := 0; c < cols; c++ {
		vals := make([]int64, rows)
		for i := range vals {
			vals[i] = int64(rng.Intn(rows))
		}
		b.AddInts(fmt.Sprintf("c%d", c), vals)
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// slowOptions makes every OC validation quadratic-ish on random data.
func slowOptions() aod.Options {
	return aod.Options{Threshold: 0.4, Algorithm: aod.AlgorithmIterative, IncludeOFDs: true}
}

func waitState(t *testing.T, s *Service, id string, want JobState) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if v.State == want {
			return v
		}
		if v.State.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, v.State, v.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %s", id, want)
	return JobView{}
}

// TestConcurrentIdenticalSubmissions is the single-flight stress test: N
// goroutines submit the same (dataset, options) pair; exactly one validation
// run must happen and the other N−1 jobs must be cache hits.
func TestConcurrentIdenticalSubmissions(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 64})
	defer s.Close()
	info, _, err := s.Registry().Add("employees", smallDataset(t))
	if err != nil {
		t.Fatal(err)
	}

	const n = 24
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := aod.Options{Threshold: 0.12, IncludeOFDs: true}
			if i%2 == 1 {
				// Result-neutral parallelism must canonicalize to the same
				// key. (TimeLimit also canonicalizes away for the cache, but
				// time-limited jobs bypass in-flight sharing, so it is not
				// used here.)
				opts.Parallelism = 2
			}
			v, err := s.Submit(info.ID, opts)
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = v.ID
		}(i)
	}
	wg.Wait()

	hits := 0
	for _, id := range ids {
		v := waitState(t, s, id, JobDone)
		if v.Report == nil {
			t.Fatalf("done job %s has no report", id)
		}
		if len(v.Report.OCs) == 0 {
			t.Fatalf("job %s found no OCs on the employee table", id)
		}
		if v.CacheHit {
			hits++
		}
	}
	if hits != n-1 {
		t.Errorf("cache-hit jobs = %d, want %d", hits, n-1)
	}
	st := s.Stats()
	if st.ValidationRuns != 1 {
		t.Errorf("validation runs = %d, want exactly 1", st.ValidationRuns)
	}
	if st.CacheHits != n-1 {
		t.Errorf("stats cache hits = %d, want %d", st.CacheHits, n-1)
	}
	if st.CacheMisses != 1 {
		t.Errorf("stats cache misses = %d, want 1", st.CacheMisses)
	}
	if st.JobsDone != n {
		t.Errorf("jobs done = %d, want %d", st.JobsDone, n)
	}
}

// TestCancelMidRun cancels a running job and verifies it reaches the
// canceled state and frees its worker for new work.
func TestCancelMidRun(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	defer s.Close()
	slow, _, err := s.Registry().Add("slow", slowDataset(t, 6000, 7))
	if err != nil {
		t.Fatal(err)
	}
	small, _, err := s.Registry().Add("small", smallDataset(t))
	if err != nil {
		t.Fatal(err)
	}

	v, err := s.Submit(slow.ID, slowOptions())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, v.ID, JobRunning)
	if _, err := s.Cancel(v.ID); err != nil {
		t.Fatal(err)
	}
	got := waitState(t, s, v.ID, JobCanceled)
	if got.FinishedAt == nil {
		t.Error("canceled job has no finish time")
	}

	// The single worker must be free again: a small job completes.
	v2, err := s.Submit(small.ID, aod.Options{Threshold: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, v2.ID, JobDone)
	st := s.Stats()
	if st.JobsCanceled != 1 {
		t.Errorf("jobs canceled = %d, want 1", st.JobsCanceled)
	}
	if st.JobsInFlight != 0 {
		t.Errorf("jobs in flight = %d, want 0", st.JobsInFlight)
	}

	// Canceling a finished job is a conflict.
	if _, err := s.Cancel(v2.ID); err != ErrJobFinished {
		t.Errorf("cancel finished job: err = %v, want ErrJobFinished", err)
	}
}

// TestWaitersReleaseWorkers: a job identical to an in-flight run parks on
// the flight instead of blocking its worker, so unrelated jobs keep flowing
// through the pool; canceling the leader requeues the waiter for a fresh
// attempt.
func TestWaitersReleaseWorkers(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	defer s.Close()
	slow, _, err := s.Registry().Add("slow", slowDataset(t, 6000, 7))
	if err != nil {
		t.Fatal(err)
	}
	small, _, err := s.Registry().Add("small", smallDataset(t))
	if err != nil {
		t.Fatal(err)
	}

	leader, err := s.Submit(slow.ID, slowOptions())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, leader.ID, JobRunning)
	waiter, err := s.Submit(slow.ID, slowOptions()) // identical: will park
	if err != nil {
		t.Fatal(err)
	}
	// Both workers have been claimed (leader + waiter pickup), but the
	// waiter must hand its worker back: this small job can only complete
	// if it does.
	quick, err := s.Submit(small.ID, aod.Options{Threshold: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, quick.ID, JobDone)
	if v, err := s.Job(leader.ID); err != nil || v.State != JobRunning {
		t.Fatalf("leader state = %v (err %v), want still running", v.State, err)
	}

	// Canceling the leader requeues the waiter, which re-leads; cancel it
	// too and check both settle as canceled.
	if _, err := s.Cancel(leader.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, leader.ID, JobCanceled)
	if _, err := s.Cancel(waiter.ID); err != nil && err != ErrJobFinished {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v, err := s.Job(waiter.ID)
		if err != nil {
			t.Fatal(err)
		}
		if v.State.Terminal() {
			if v.State != JobCanceled {
				t.Fatalf("waiter settled as %s, want canceled", v.State)
			}
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("waiter never settled after leader cancel")
}

// TestQueueSaturation verifies Submit's backpressure: with one busy worker
// and a full queue, further submissions fail fast with ErrQueueFull.
func TestQueueSaturation(t *testing.T) {
	const depth = 3
	s := New(Config{Workers: 1, QueueDepth: depth})
	defer s.Close()
	slow, _, err := s.Registry().Add("slow", slowDataset(t, 6000, 7))
	if err != nil {
		t.Fatal(err)
	}

	// Occupy the only worker...
	busy, err := s.Submit(slow.ID, slowOptions())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, busy.ID, JobRunning)
	// ...fill the queue (distinct thresholds → distinct keys, no flights)...
	for i := 0; i < depth; i++ {
		if _, err := s.Submit(slow.ID, aod.Options{Threshold: 0.01 * float64(i+1)}); err != nil {
			t.Fatalf("queue fill %d: %v", i, err)
		}
	}
	// ...and overflow it.
	if _, err := s.Submit(slow.ID, aod.Options{Threshold: 0.9}); err != ErrQueueFull {
		t.Fatalf("overflow submit: err = %v, want ErrQueueFull", err)
	}
	st := s.Stats()
	if st.JobsQueued != depth {
		t.Errorf("jobs queued = %d, want %d", st.JobsQueued, depth)
	}
}

// TestCancelRelievesBackpressure: canceling queued jobs frees their queue
// slots immediately, without waiting for a worker to drain them.
func TestCancelRelievesBackpressure(t *testing.T) {
	const depth = 2
	s := New(Config{Workers: 1, QueueDepth: depth})
	defer s.Close()
	slow, _, err := s.Registry().Add("slow", slowDataset(t, 6000, 7))
	if err != nil {
		t.Fatal(err)
	}
	busy, err := s.Submit(slow.ID, slowOptions())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, busy.ID, JobRunning)
	var queued []string
	for i := 0; i < depth; i++ {
		v, err := s.Submit(slow.ID, aod.Options{Threshold: 0.01 * float64(i+1)})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, v.ID)
	}
	if _, err := s.Submit(slow.ID, aod.Options{Threshold: 0.9}); err != ErrQueueFull {
		t.Fatalf("overflow submit: err = %v, want ErrQueueFull", err)
	}
	// Canceling a queued job must relieve the backpressure at once — the
	// single worker is still stuck on the busy job.
	if _, err := s.Cancel(queued[0]); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.JobsQueued != depth-1 {
		t.Errorf("jobs queued after cancel = %d, want %d", st.JobsQueued, depth-1)
	}
	if _, err := s.Submit(slow.ID, aod.Options{Threshold: 0.91}); err != nil {
		t.Errorf("submit after cancel freed a slot: %v", err)
	}
	if _, err := s.Cancel(busy.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, busy.ID, JobCanceled)
}

// TestUnboundedQueue: a negative QueueDepth disables backpressure entirely.
func TestUnboundedQueue(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: -1})
	defer s.Close()
	slow, _, err := s.Registry().Add("slow", slowDataset(t, 6000, 7))
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 80; i++ { // far beyond the default depth of 64
		v, err := s.Submit(slow.ID, aod.Options{Threshold: 0.001 * float64(i+1)})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, v.ID)
	}
	for _, id := range ids {
		if _, err := s.Cancel(id); err != nil && err != ErrJobFinished {
			t.Fatal(err)
		}
	}
}

// TestCancelQueuedJob verifies a queued job is finalized without ever
// occupying a worker.
func TestCancelQueuedJob(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	defer s.Close()
	slow, _, err := s.Registry().Add("slow", slowDataset(t, 6000, 7))
	if err != nil {
		t.Fatal(err)
	}
	busy, err := s.Submit(slow.ID, slowOptions())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, busy.ID, JobRunning)
	queued, err := s.Submit(slow.ID, aod.Options{Threshold: 0.33})
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != JobCanceled {
		t.Fatalf("queued job state after cancel = %s, want canceled", v.State)
	}
	if _, err := s.Cancel(busy.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, busy.ID, JobCanceled)
}

// TestJobHistoryBound verifies the oldest terminal jobs are evicted once
// the retention bound is exceeded, while live jobs survive.
func TestJobHistoryBound(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8, MaxJobHistory: 2})
	defer s.Close()
	info, _, err := s.Registry().Add("employees", smallDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 4; i++ {
		// Distinct thresholds so each job is a distinct validation.
		v, err := s.Submit(info.ID, aod.Options{Threshold: 0.01 * float64(i+1)})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, v.ID, JobDone)
		ids = append(ids, v.ID)
	}
	// One more submission triggers pruning of the oldest finished records.
	v, err := s.Submit(info.ID, aod.Options{Threshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, v.ID, JobDone)
	if got := len(s.Jobs()); got > 3 {
		t.Errorf("job history length = %d, want <= 3 (bound 2 + 1 just submitted)", got)
	}
	if _, err := s.Job(ids[0]); err == nil {
		t.Error("oldest job should have been evicted")
	}
	if _, err := s.Job(v.ID); err != nil {
		t.Errorf("newest job must survive pruning: %v", err)
	}
}

func TestSubmitUnknownDataset(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	if _, err := s.Submit("nope", aod.Options{}); err == nil {
		t.Fatal("submit against unknown dataset id should fail")
	}
}

// TestSubmitValidatesOptions: invalid configurations are rejected before a
// job (and cache key) ever exists, and client parallelism is clamped to the
// host so one request cannot spawn unbounded goroutines.
func TestSubmitValidatesOptions(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	info, _, err := s.Registry().Add("employees", smallDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(info.ID, aod.Options{Threshold: 9}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("threshold 9: err = %v, want ErrInvalidOptions", err)
	}
	if _, err := s.Submit(info.ID, aod.Options{MaxLevel: -1}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("negative MaxLevel: err = %v, want ErrInvalidOptions", err)
	}
	v, err := s.Submit(info.ID, aod.Options{Threshold: 0.1, Parallelism: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if max := runtime.GOMAXPROCS(0); v.Options.Parallelism > max {
		t.Errorf("parallelism %d not clamped to GOMAXPROCS %d", v.Options.Parallelism, max)
	}
	waitState(t, s, v.ID, JobDone)
	st := s.Stats()
	if st.JobsFailed != 0 {
		t.Errorf("jobs failed = %d, want 0", st.JobsFailed)
	}
}

func TestRegistryDeduplicatesByFingerprint(t *testing.T) {
	r := NewRegistry(0, nil)
	a, createdA, err := r.Add("first", smallDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	b, createdB, err := r.Add("second", smallDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	if !createdA || createdB {
		t.Errorf("created flags = %v, %v; want true, false", createdA, createdB)
	}
	if a.ID != b.ID || a.Fingerprint != b.Fingerprint {
		t.Errorf("identical content got distinct records: %+v vs %+v", a, b)
	}
	if r.Len() != 1 {
		t.Errorf("registry size = %d, want 1 after dedup", r.Len())
	}
}

func TestRegistryBound(t *testing.T) {
	r := NewRegistry(1, nil)
	if _, _, err := r.Add("a", smallDataset(t)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Add("b", slowDataset(t, 50, 2)); err != ErrRegistryFull {
		t.Fatalf("err = %v, want ErrRegistryFull", err)
	}
}

func TestCanonicalOptionsKey(t *testing.T) {
	fp := "abc"
	base := aod.Options{Threshold: 0.1}
	same := []aod.Options{
		{Threshold: 0.1, Parallelism: 8},
		{Threshold: 0.1, TimeLimit: time.Hour},
	}
	for i, o := range same {
		if cacheKey(fp, o) != cacheKey(fp, base) {
			t.Errorf("variant %d: key %q != base %q", i, cacheKey(fp, o), cacheKey(fp, base))
		}
	}
	diff := []aod.Options{
		{Threshold: 0.2},
		{Threshold: 0.1, Algorithm: aod.AlgorithmIterative},
		{Threshold: 0.1, IncludeOFDs: true},
		{Threshold: 0.1, MaxLevel: 2},
		{Threshold: 0.1, Bidirectional: true},
	}
	for i, o := range diff {
		if cacheKey(fp, o) == cacheKey(fp, base) {
			t.Errorf("variant %d unexpectedly shares the base key", i)
		}
	}
	// Exact discovery ignores the threshold entirely.
	if cacheKey(fp, aod.Options{Algorithm: aod.AlgorithmExact, Threshold: 0.3}) !=
		cacheKey(fp, aod.Options{Algorithm: aod.AlgorithmExact}) {
		t.Error("exact-validator thresholds should canonicalize away")
	}
}

func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2, nil)
	r1, r2, r3 := &aod.Report{}, &aod.Report{}, &aod.Report{}
	c.put("a", r1)
	c.put("b", r2)
	if _, ok := c.get("a"); !ok { // refresh a; b becomes LRU
		t.Fatal("a should be cached")
	}
	c.put("c", r3)
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted as least recently used")
	}
	if got, ok := c.get("a"); !ok || got != r1 {
		t.Error("a should have survived the eviction")
	}
	if got, ok := c.get("c"); !ok || got != r3 {
		t.Error("c should be cached")
	}
	size, capacity, evictions := c.stats()
	if size != 2 || capacity != 2 || evictions != 1 {
		t.Errorf("stats = (%d, %d, %d), want (2, 2, 1)", size, capacity, evictions)
	}
}

func TestCloseCancelsRunningJobs(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	slow, _, err := s.Registry().Add("slow", slowDataset(t, 6000, 7))
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Submit(slow.ID, slowOptions())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, v.ID, JobRunning)
	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not drain the running job")
	}
	if _, err := s.Submit(slow.ID, aod.Options{}); err != ErrClosed {
		t.Errorf("submit after close: err = %v, want ErrClosed", err)
	}
}
