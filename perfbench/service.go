package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"aod"
	"aod/internal/gen"
	"aod/internal/load"
	"aod/internal/service"
	"aod/internal/telemetry"
)

// serviceWorkload drives a live aodserver with open-loop traffic of four
// request classes:
//
//   - cachehit re-submits a small dataset's canonical job, answered from the
//     result cache;
//   - small submits a job with a fresh cache key on an already registered
//     small dataset, so it validates over warm cached partitions;
//   - fresh uploads a small dataset the server has never seen and submits a
//     job on it: CSV parse, persistence, cold partitioning, validation;
//   - large submits a job bounded at a low lattice level on a wide
//     registered dataset, holding a worker for a couple of hundred
//     milliseconds the way batch work does.
type serviceWorkload struct {
	rate float64
	// mix weighs the classes in the order of classes.
	mix                          []float64
	zipf                         float64
	smallRows, smallCols, nSmall int
	largeRows, largeCols, nLarge int
	// largeMaxLevel bounds large jobs. A level bound, unlike a time limit,
	// fixes their work whatever the host's speed, and their reports can be
	// checked.
	largeMaxLevel int
	threshold     float64
	// drain bounds how long requests may still run after the window.
	drain time.Duration
}

// maxLate is the generator lateness past which a run is invalid: when the
// typical request leaves later than this, the open loop no longer holds its
// schedule. The 99th percentile is reported, and warned about past it, but
// does not invalidate a run: on two shared cores it reaches a few
// milliseconds whenever server threads hold both of them.
const maxLate = 5 * time.Millisecond

// calibrationSamples is how many times the calibration task runs on each
// side of a service window.
const calibrationSamples = 10

// svcDataSeed fixes the generated tables. Every uploaded dataset is a
// variant of one of them (equal work, distinct content); --seed picks the
// variants and draws the request plan.
const svcDataSeed = 42

func defaultService(rate float64) serviceWorkload {
	return serviceWorkload{
		rate: rate, mix: []float64{35, 30, 25, 10}, zipf: 0.99,
		smallRows: 2000, smallCols: 8, nSmall: 8,
		largeRows: 12000, largeCols: 18, nLarge: 2, largeMaxLevel: 2,
		threshold: 0.10,
		drain:     60 * time.Second,
	}
}

// options are a class's canonical job options; cachehit requests use them
// as they are.
func (w serviceWorkload) options(class string) aod.Options {
	opts := aod.Options{Threshold: w.threshold, IncludeOFDs: true}
	if class == "large" {
		opts.MaxLevel = w.largeMaxLevel
	}
	return opts
}

// requestOptions gives each non-cachehit request a unique cache key by
// nudging the threshold by a jitter far below 1/rows, which leaves the
// report unchanged.
func (w serviceWorkload) requestOptions(r request) aod.Options {
	opts := w.options(r.class)
	if r.class != "cachehit" {
		opts.Threshold += float64(r.seq+1) * 1e-9
	}
	return opts
}

// executorFor is the executor the server's default adaptive routing picks
// for a class's validation runs.
func (w serviceWorkload) executorFor(class string) string {
	rows, cols := w.smallRows, w.smallCols
	if class == "large" {
		rows, cols = w.largeRows, w.largeCols
	}
	if aod.EstimateWork(rows, cols, w.options(class).MaxLevel) <= service.DefaultSerialCostMax {
		return "serial"
	}
	return "pool"
}

// svcInputs are the generated upload bodies and the expected reports.
type svcInputs struct {
	small, large, fresh [][]byte
	// smallRefs and largeRefs digest aod.Discover on each small and large
	// body under its class's options.
	smallRefs, largeRefs []string
}

func (w serviceWorkload) inputs(seed int64, nFresh int) (*svcInputs, error) {
	k := seedVariant(seed)
	small := gen.Flight(gen.FlightConfig{Rows: w.smallRows, Attrs: w.smallCols, Seed: svcDataSeed})
	large := gen.Flight(gen.FlightConfig{Rows: w.largeRows, Attrs: w.largeCols, Seed: svcDataSeed})
	in := &svcInputs{}
	var err error
	if in.small, err = variantBodies(small, k, w.nSmall); err != nil {
		return nil, err
	}
	if in.large, err = variantBodies(large, k, w.nLarge); err != nil {
		return nil, err
	}
	if in.fresh, err = variantBodies(small, k+w.nSmall, nFresh); err != nil {
		return nil, err
	}
	for _, body := range in.small {
		d, err := w.reference(body, "small")
		if err != nil {
			return nil, err
		}
		in.smallRefs = append(in.smallRefs, d)
	}
	for _, body := range in.large {
		d, err := w.reference(body, "large")
		if err != nil {
			return nil, err
		}
		in.largeRefs = append(in.largeRefs, d)
	}
	return in, nil
}

// reference digests aod.Discover on an upload body, parsed as the server
// parses it, under the class's options.
func (w serviceWorkload) reference(body []byte, class string) (string, error) {
	ds, err := aod.ReadCSV(bytes.NewReader(body), aod.CSVOptions{})
	if err != nil {
		return "", fmt.Errorf("parsing reference input: %w", err)
	}
	rep, err := aod.Discover(ds, w.options(class))
	if err != nil {
		return "", fmt.Errorf("reference discovery: %w", err)
	}
	return digestReport(rep), nil
}

// svcEnv is one set-up of a service workload: a server holding the
// registered datasets, with the cache-hit keys and the large datasets'
// partitions warm.
type svcEnv struct {
	srv                server
	api                *api
	in                 *svcInputs
	smallIDs, largeIDs []string
}

func (w serviceWorkload) setup(ctx context.Context, o runOptions, in *svcInputs, dir string) (*svcEnv, error) {
	srv, err := o.startServer(ctx, dir)
	if err != nil {
		return nil, err
	}
	e := &svcEnv{srv: srv, api: newAPI(srv.url()), in: in}
	if err := e.register(ctx, w); err != nil {
		srv.stop()
		return nil, err
	}
	return e, nil
}

// register uploads the small and large datasets and runs one job on each,
// whose report must match the reference: the small jobs fill the result
// cache, the large ones warm the partition cache.
func (e *svcEnv) register(ctx context.Context, w serviceWorkload) error {
	for i, body := range e.in.small {
		id, err := e.api.UploadCSV(ctx, fmt.Sprintf("small-%d", i), body)
		if err != nil {
			return err
		}
		e.smallIDs = append(e.smallIDs, id)
	}
	for i, body := range e.in.large {
		id, err := e.api.UploadCSV(ctx, fmt.Sprintf("large-%d", i), body)
		if err != nil {
			return err
		}
		e.largeIDs = append(e.largeIDs, id)
	}
	for _, set := range []struct {
		class string
		ids   []string
		refs  []string
	}{{"small", e.smallIDs, e.in.smallRefs}, {"large", e.largeIDs, e.in.largeRefs}} {
		for i, id := range set.ids {
			rep, err := e.job(ctx, id, w.options(set.class))
			if err != nil {
				return err
			}
			if d := digestReport(rep); d != set.refs[i] {
				return fmt.Errorf("%s dataset %d: report %s differs from aod.Discover %s", set.class, i, d, set.refs[i])
			}
		}
	}
	return nil
}

// job submits one job and waits for its report.
func (e *svcEnv) job(ctx context.Context, datasetID string, opts aod.Options) (*aod.Report, error) {
	id, shed, _, err := e.api.Submit(ctx, datasetID, opts)
	if err != nil {
		return nil, err
	}
	if shed {
		return nil, fmt.Errorf("set-up job on %s was shed", datasetID)
	}
	state, rep, err := e.api.await(ctx, id)
	if err != nil {
		return nil, err
	}
	if state != "done" {
		return nil, fmt.Errorf("set-up job %s ended %s", id, state)
	}
	return rep, nil
}

// outcome is what happened to one request.
type outcome struct {
	r                                request
	late, upload, submitRTT, latency time.Duration
	jobID, state                     string
	report                           *aod.Report
	shed                             bool
	err                              error
}

// fire sends one request: for a fresh request the upload first, then the
// submission, then a wait on the job's stream until its report arrives.
// Latency runs from the request's due time.
func (w serviceWorkload) fire(ctx context.Context, e *svcEnv, r request, due time.Time, late time.Duration) outcome {
	out := outcome{r: r, late: late}
	var dsID string
	switch r.class {
	case "fresh":
		t0 := time.Now()
		id, err := e.api.UploadCSV(ctx, fmt.Sprintf("fresh-%d", r.dataset), e.in.fresh[r.dataset])
		out.upload = time.Since(t0)
		if err != nil {
			out.err = err
			return out
		}
		dsID = id
	case "large":
		dsID = e.largeIDs[r.dataset]
	default:
		dsID = e.smallIDs[r.dataset]
	}
	t0 := time.Now()
	jobID, shed, _, err := e.api.Submit(ctx, dsID, w.requestOptions(r))
	out.submitRTT = time.Since(t0)
	if shed || err != nil {
		out.shed, out.err = shed, err
		return out
	}
	out.jobID = jobID
	out.state, out.report, out.err = e.api.await(ctx, jobID)
	out.latency = time.Since(due)
	return out
}

// verify counts the requests that failed, were shed, timed out or returned a
// wrong report. Every report must match the in-process reference of its
// dataset; fresh reports are checked against their own upload body here,
// after the window.
func (w serviceWorkload) verify(in *svcInputs, outs []outcome) (failed int, err error) {
	for i := range outs {
		o := &outs[i]
		if o.err != nil || o.shed || o.state != "done" || o.report == nil {
			failed++
			continue
		}
		var want string
		switch o.r.class {
		case "large":
			want = in.largeRefs[o.r.dataset]
		case "fresh":
			if want, err = w.reference(in.fresh[o.r.dataset], "fresh"); err != nil {
				return 0, err
			}
		default:
			want = in.smallRefs[o.r.dataset]
		}
		if got := digestReport(o.report); got != want {
			o.err = fmt.Errorf("%s request %d: report %s, want %s", o.r.class, o.r.seq, got, want)
			failed++
		}
	}
	return failed, nil
}

// statsView is the part of GET /stats the benchmark reads.
type statsView struct {
	CacheHits            uint64 `json:"cacheHits"`
	CacheMisses          uint64 `json:"cacheMisses"`
	PartitionCacheHits   uint64 `json:"partitionCacheHits"`
	PartitionCacheMisses uint64 `json:"partitionCacheMisses"`
	PersistErrors        uint64 `json:"persistErrors"`
	GroupCommits         uint64 `json:"groupCommits"`
	BatchedWrites        uint64 `json:"batchedWrites"`
	JobsRoutedSerial     uint64 `json:"jobsRoutedSerial"`
	JobsRoutedPool       uint64 `json:"jobsRoutedPool"`
	JobsRoutedSharded    uint64 `json:"jobsRoutedSharded"`
}

// serverSnapshot is the server's state at one edge of the window.
type serverSnapshot struct {
	stats   statsView
	metrics string
	cpu     time.Duration
}

func (e *svcEnv) snapshot(ctx context.Context) (serverSnapshot, error) {
	var s serverSnapshot
	var err error
	if err = e.api.getJSON(ctx, "/stats", &s.stats); err != nil {
		return s, err
	}
	if s.metrics, err = e.api.Metrics(ctx); err != nil {
		return s, err
	}
	s.cpu, err = procCPU(e.srv.pid())
	return s, err
}

// run plans the traffic, generates its inputs and their references, sets
// the server up setupReps times, fires the plan at the last server, drains,
// and checks every report. The calibration task runs before and after the
// window, while the server is idle, never during it: there it would take
// CPU from the server, and a server that used more CPU would slow the
// calibration and scale its own regression away.
func (w serviceWorkload) run(ctx context.Context, o runOptions) (*runResult, error) {
	plan, err := buildPlan(o.seed, planConfig{
		rate: w.rate, window: o.window, mix: w.mix, zipf: w.zipf, nSmall: w.nSmall, nLarge: w.nLarge,
	})
	if err != nil {
		return nil, err
	}
	in, err := w.inputs(o.seed, countClass(plan, "fresh"))
	if err != nil {
		return nil, err
	}
	reps := 0
	env, setupS, err := timedSetups(func() (*svcEnv, error) {
		reps++
		dir := filepath.Join(o.workDir, fmt.Sprintf("server-%d-%d", selfPID, reps))
		return w.setup(ctx, o, in, dir)
	}, func(e *svcEnv) { e.srv.stop() })
	if err != nil {
		return nil, err
	}
	defer env.srv.stop()
	cal := newCalibrator()
	for range calibrationSamples {
		cal.sample()
	}

	before, err := env.snapshot(ctx)
	if err != nil {
		return nil, err
	}
	outs := make([]outcome, len(plan))
	reqCtx, cancel := context.WithTimeout(ctx, o.window+w.drain)
	defer cancel()
	rssS := sampleRSS(env.srv.pid(), 100*time.Millisecond)
	defer rssS.stop()
	steal := startSteal()
	start := time.Now()
	_, inflightMax := openLoop(reqCtx, load.RealClock{}, plan, func(r request, due time.Time, late time.Duration) {
		outs[r.seq] = w.fire(reqCtx, env, r, due, late)
	})
	elapsed := time.Since(start)
	stolen := steal.share(o.log)
	after, err := env.snapshot(ctx)
	if err != nil {
		return nil, err
	}
	rss := rssS.median()
	for range calibrationSamples {
		cal.sample()
	}
	var traces map[string]telemetry.TraceJSON
	if o.trace {
		if traces, err = fetchTraces(ctx, env.api, outs); err != nil {
			return nil, err
		}
	}
	failed, err := w.verify(env.in, outs)
	if err != nil {
		return nil, err
	}
	for _, out := range outs {
		if out.err != nil {
			fmt.Fprintf(o.log, "perfbench: %s request %d: %v\n", out.r.class, out.r.seq, out.err)
			break
		}
	}
	var late []float64
	for _, out := range outs {
		late = append(late, ms(out.late))
	}
	if p50 := median(late); p50 > ms(maxLate) {
		return nil, fmt.Errorf("invalid run: the generator dispatched half its requests over %.1f ms late (limit %v)", p50, maxLate)
	}
	if p99 := quantile(late, 0.99); p99 > ms(maxLate) {
		fmt.Fprintf(o.log, "perfbench: warning: p99 generator lateness %.1f ms exceeds %v\n", p99, maxLate)
	}

	res := &runResult{attempted: len(plan), failed: failed, e2e: metricSet{}, layers: zeroLayers()}
	lat := map[string][]float64{}
	done := 0
	for _, out := range outs {
		if out.err == nil && out.state == "done" {
			done++
			lat[out.r.class] = append(lat[out.r.class], ms(out.latency))
		}
	}
	cpu := after.cpu - before.cpu
	res.e2e["setup_s"] = setupS * cal.scale()
	res.e2e["p50_ms"] = laneMedian(lat, serviceLanes) * cal.scale()
	res.e2e["cpu_ms_per_job"] = ratio(ms(cpu), float64(done)) * cal.scale()
	res.e2e["rss_mb"] = rss

	m := res.layers
	laneLayers(m, lat, classes)
	m["host.calibration_ms"] = cal.median()
	m["host.steal_share"] = stolen
	var uploads, rtts []float64
	for _, out := range outs {
		if out.r.class == "fresh" && out.upload > 0 {
			uploads = append(uploads, ms(out.upload))
		}
		if out.submitRTT > 0 {
			rtts = append(rtts, ms(out.submitRTT))
		}
	}
	m["load.late_p99_ms"] = quantile(late, 0.99)
	m["load.inflight_max"] = float64(inflightMax)
	m["dataset.upload_p50_ms"] = quantile(uploads, 0.50)
	m["dataset.upload_p90_ms"] = quantile(uploads, 0.90)
	m["service.submit_rtt_p50_ms"] = median(rtts)
	m["service.utilization"] = ratio(cpu.Seconds(), elapsed.Seconds()*float64(runtime.NumCPU()))
	serverLayers(m, before, after)
	if o.trace {
		res.ledger = w.traceLayers(o.workload, outs, traces, m)
	}
	return res, nil
}

// serverLayers fills the metrics read from the server's own counters over
// the window: the diff of /stats and /metrics between its edges.
func serverLayers(m metricSet, before, after serverSnapshot) {
	d := func(a, b uint64) float64 { return float64(a - b) }
	a, b := after.stats, before.stats
	hits, misses := d(a.CacheHits, b.CacheHits), d(a.CacheMisses, b.CacheMisses)
	m["service.cache_hit_ratio"] = ratio(hits, hits+misses)
	phits, pmisses := d(a.PartitionCacheHits, b.PartitionCacheHits), d(a.PartitionCacheMisses, b.PartitionCacheMisses)
	m["service.partition_cache_hit_ratio"] = ratio(phits, phits+pmisses)
	m["service.routed.serial"] = d(a.JobsRoutedSerial, b.JobsRoutedSerial)
	m["service.routed.pool"] = d(a.JobsRoutedPool, b.JobsRoutedPool)
	m["service.routed.sharded"] = d(a.JobsRoutedSharded, b.JobsRoutedSharded)
	m["store.writes_per_commit"] = ratio(d(a.BatchedWrites, b.BatchedWrites), d(a.GroupCommits, b.GroupCommits))
	m["store.persist_errors"] = d(a.PersistErrors, b.PersistErrors)
	const family = "aod_queue_wait_seconds"
	qw := load.ParseHistograms(after.metrics, family)[""].Sub(load.ParseHistograms(before.metrics, family)[""])
	m["service.queue_wait_p50_ms"] = ms(qw.Quantile(0.50))
	m["service.queue_wait_p90_ms"] = ms(qw.Quantile(0.90))
}

// fetchTraces reads the span tree of every job the window submitted, two
// requests at a time.
func fetchTraces(ctx context.Context, a *api, outs []outcome) (map[string]telemetry.TraceJSON, error) {
	var mu sync.Mutex
	traces := make(map[string]telemetry.TraceJSON)
	var firstErr error
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for _, out := range outs {
		if out.jobID == "" {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(id string) {
			defer wg.Done()
			defer func() { <-sem }()
			var tr telemetry.TraceJSON
			err := a.getJSON(ctx, "/jobs/"+id+"/trace", &tr)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			traces[id] = tr
		}(out.jobID)
	}
	wg.Wait()
	return traces, firstErr
}

// stageOf maps a job-level span name to its ledger stage.
var stageOf = map[string]string{
	"queue-wait":         "queue_wait",
	"cache-lookup":       "cache_lookup",
	"dataset-load":       "dataset_load",
	"prepare-partitions": "prepare",
	"discover":           "discover",
}

// traceLayers fills the per-layer metrics that come from job traces and
// reports, and returns the layer ledger: per class, a request's wall time
// (due time to report) split into generator lateness, upload, the server's
// job span — itself split into its stages — and the residual outside the
// job span (HTTP round trips and stream delivery).
func (w serviceWorkload) traceLayers(workload string, outs []outcome, traces map[string]telemetry.TraceJSON, m metricSet) string {
	var b strings.Builder
	var residualShares []float64
	// runStats gathers the validation runs of one executor; the last four
	// slices cover the interactive (small and fresh) runs only.
	type runStats struct{ valid, part, build, total, cands, levels, nodes, fullCands, found []float64 }
	byExec := map[string]*runStats{}
	for _, e := range executors {
		byExec[e] = &runStats{}
	}
	for _, class := range classes {
		var n, wall, late, upload, job float64
		stage := map[string]float64{}
		for _, out := range outs {
			if out.r.class != class || out.err != nil || out.state != "done" {
				continue
			}
			root := jobSpan(traces[out.jobID])
			if root == nil {
				continue
			}
			n++
			wall += ms(out.latency)
			late += ms(out.late)
			upload += ms(out.upload)
			job += ms(root.Duration)
			var build float64
			for _, c := range root.Children {
				if st, ok := stageOf[c.Name]; ok {
					stage[st] += ms(c.Duration)
				}
				if c.Name == "discover" {
					for _, g := range c.Children {
						if g.Name == "partition-build" {
							build += ms(g.Duration)
						}
					}
				}
			}
			if class == "cachehit" || out.report == nil {
				continue
			}
			rs := byExec[w.executorFor(class)]
			st := out.report.Stats
			cands := float64(st.OCCandidates + st.OFDCandidates)
			rs.valid = append(rs.valid, ms(st.ValidationTime))
			rs.part = append(rs.part, ms(st.PartitionTime))
			rs.build = append(rs.build, build)
			rs.total = append(rs.total, ms(st.TotalTime))
			rs.cands = append(rs.cands, cands)
			if class != "large" { // the core counts describe the interactive jobs
				rs.levels = append(rs.levels, float64(st.LevelsProcessed))
				rs.nodes = append(rs.nodes, float64(st.NodesProcessed))
				rs.fullCands = append(rs.fullCands, cands)
				rs.found = append(rs.found, float64(len(out.report.OCs)+len(out.report.OFDs)))
			}
		}
		if n == 0 {
			continue
		}
		var stages float64
		for _, st := range jobStages {
			m[fmt.Sprintf("service.span.%s_ms.%s", st, class)] = stage[st] / n
			stages += stage[st]
		}
		residual := wall - late - upload - job
		residualShares = append(residualShares, ratio(residual, wall))
		fmt.Fprintf(&b, "ledger %s/%s: %d requests, mean ms per request\n", workload, class, int(n))
		fmt.Fprintf(&b, "  wall (due to report) %9.2f\n", wall/n)
		ledgerLine(&b, "lateness", late/n, wall/n)
		ledgerLine(&b, "upload", upload/n, wall/n)
		ledgerLine(&b, "server job", job/n, wall/n)
		for _, st := range jobStages {
			ledgerLine(&b, "  "+st, stage[st]/n, wall/n)
		}
		ledgerLine(&b, "  job other", (job-stages)/n, wall/n)
		ledgerLine(&b, "residual (http)", residual/n, wall/n)
	}
	var levels, nodes, cands, found []float64
	for _, e := range executors {
		rs := byExec[e]
		if len(rs.valid) == 0 {
			continue
		}
		var valid, allCands float64
		for i := range rs.valid {
			valid += rs.valid[i]
			allCands += rs.cands[i]
		}
		m["validate.busy_ms."+e] = mean(rs.valid)
		m["validate.ns_per_candidate."+e] = ratio(valid*1e6, allCands)
		m["partition.busy_ms."+e] = mean(rs.part)
		m["partition.build_ms."+e] = mean(rs.build)
		if e == "serial" {
			var residual []float64
			for i := range rs.total {
				residual = append(residual, rs.total[i]-rs.valid[i]-rs.part[i])
			}
			m["core.residual_ms.serial"] = mean(residual)
		}
		levels = append(levels, rs.levels...)
		nodes = append(nodes, rs.nodes...)
		found = append(found, rs.found...)
		cands = append(cands, rs.fullCands...)
	}
	m["core.levels"] = mean(levels)
	m["core.nodes"] = mean(nodes)
	m["core.candidates"] = mean(cands)
	m["validate.yield"] = ratio(mean(found), mean(cands))
	m["ledger.residual_share"] = mean(residualShares)
	return b.String()
}

// jobSpan returns the root "job" span of a service job's trace.
func jobSpan(t telemetry.TraceJSON) *telemetry.TreeNode {
	for _, s := range t.Spans {
		if s.Name == "job" {
			return s
		}
	}
	return nil
}
