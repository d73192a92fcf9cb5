// Package router is the fault-tolerant front door for a fleet of replicated
// aodservers: a thin, effectively stateless HTTP proxy that hash-routes
// requests across replicas keyed by dataset content fingerprint, probes
// replica health, retries and fails over with jittered exponential backoff,
// and sheds load per tenant with honest Retry-After hints.
//
// Three properties of the backend make the router simple enough to trust:
//
//   - Dataset uploads are content-addressed and idempotent, so the router
//     replicates every upload to every replica — a job can then run
//     anywhere its routing lands.
//   - Job submission is idempotent per (fingerprint, canonical options):
//     replicas dedup identical submissions through their result cache and
//     single-flight table, and peer each other's caches. Retrying a submit
//     on another replica therefore cannot double-execute a completed job —
//     the cache key IS the dedup key.
//   - Job results are immutable once computed, so serving a report from
//     whichever replica holds it is always correct.
//
// Every backend RPC — health probes included — passes through a pluggable
// http.RoundTripper, which is where the deterministic FaultPlan chaos seam
// hooks in; the router cannot tell injected faults from organic ones, which
// is the point.
package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"aod/internal/service"
	"aod/internal/telemetry"
)

// Config configures a Router. Replicas is the only required field.
type Config struct {
	// Replicas are the backend aodserver base URLs (http://host:port).
	Replicas []string

	// MaxAttempts bounds total tries per proxied call, first attempt
	// included (default 2×len(Replicas), min 3). RetryBudget bounds the
	// same thing in wall-clock time (default 15s) — whichever runs out
	// first ends the retrying.
	MaxAttempts int
	RetryBudget time.Duration

	// BackoffBase doubles per retry up to BackoffMax, multiplied by a
	// jitter in [0.5, 1.5) drawn from a generator seeded with Seed — the
	// retry schedule is reproducible for a given seed. Defaults: 25ms base,
	// 1s max, seed 1.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	Seed        int64

	// Probe cadence for active /healthz checks (defaults 500ms / 2s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration

	// AttemptTimeout bounds one non-streaming backend RPC (default 15s).
	// Streams are exempt: they live as long as the client connection.
	AttemptTimeout time.Duration

	// MaxQueueAge sheds new submits when every healthy replica's oldest
	// queued job is older than this (0 disables). The 503 carries a
	// Retry-After derived from the observed age, not a constant.
	MaxQueueAge time.Duration

	// Admission quotas: DefaultQuota applies to tenants absent from
	// Quotas. Tenants identify themselves with the X-AOD-Tenant header;
	// the empty tenant is a tenant like any other.
	DefaultQuota TenantQuota
	Quotas       map[string]TenantQuota

	// MaxUploadBytes bounds dataset upload bodies
	// (default service.DefaultMaxUploadBytes).
	MaxUploadBytes int64

	// Fault, when set, wraps the transport with the deterministic
	// fault-injection seam. Transport overrides the base transport
	// (tests; default is a tuned http.Transport).
	Fault     *FaultPlan
	Transport http.RoundTripper

	// Metrics receives aod_router_* series (default: a fresh registry,
	// exposed on GET /metrics either way). Logf defaults to silent.
	Metrics *telemetry.Registry
	Logf    func(format string, args ...any)

	now func() time.Time // test seam
}

// maxSubmitBytes bounds a job-submission body; a submit is a dataset id
// plus options, so 1 MiB is already generous.
const maxSubmitBytes = 1 << 20

// submitMemoryCap bounds remembered submits (failover window).
const submitMemoryCap = 4096

func (cfg Config) withDefaults() Config {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 2 * len(cfg.Replicas)
		if cfg.MaxAttempts < 3 {
			cfg.MaxAttempts = 3
		}
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = 15 * time.Second
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 25 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 500 * time.Millisecond
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.AttemptTimeout <= 0 {
		cfg.AttemptTimeout = 15 * time.Second
	}
	if cfg.MaxUploadBytes <= 0 {
		cfg.MaxUploadBytes = service.DefaultMaxUploadBytes
	}
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.NewRegistry()
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	return cfg
}

type routerMetrics struct {
	requests   *telemetry.Counter
	retries    *telemetry.Counter
	failovers  *telemetry.Counter
	shedTenant *telemetry.Counter
	shedQueue  *telemetry.Counter
	exhausted  *telemetry.Counter
	uploadRepl *telemetry.Counter
	rpc        []*telemetry.Histogram // indexed by replica
}

// Router proxies the aodserver HTTP API across replicas. Create with New,
// serve it (it implements http.Handler), Close it to stop the probes.
type Router struct {
	cfg       Config
	replicas  []*replica
	transport http.RoundTripper
	mux       *http.ServeMux
	met       routerMetrics
	admit     *admitter
	submits   *submitMemory

	jitterMu sync.Mutex
	jitter   *rand.Rand

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// New builds a Router and starts its health probes.
func New(cfg Config) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("router: no replicas configured")
	}
	cfg = cfg.withDefaults()
	rt := &Router{
		cfg:     cfg,
		jitter:  rand.New(rand.NewSource(cfg.Seed)),
		admit:   newAdmitter(cfg.DefaultQuota, cfg.Quotas),
		submits: newSubmitMemory(submitMemoryCap),
		stop:    make(chan struct{}),
	}
	for i, base := range cfg.Replicas {
		rp := &replica{idx: i, base: strings.TrimRight(base, "/")}
		rp.up.Store(true) // optimistic until the first probe lands — don't refuse work at startup
		rt.replicas = append(rt.replicas, rp)
	}
	base := cfg.Transport
	if base == nil {
		base = &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}
	}
	rt.transport = cfg.Fault.transport(base)
	rt.initMetrics()
	rt.initMux()
	for _, rp := range rt.replicas {
		rt.wg.Add(1)
		go rt.probeLoop(rp)
	}
	return rt, nil
}

func (rt *Router) initMetrics() {
	reg := rt.cfg.Metrics
	rt.met = routerMetrics{
		requests:   reg.Counter("aod_router_requests_total", "", "Client requests handled by the router."),
		retries:    reg.Counter("aod_router_retries_total", "", "Backend RPC retries (attempts beyond each call's first)."),
		failovers:  reg.Counter("aod_router_failovers_total", "", "Jobs re-submitted to another replica after their stream or home replica failed."),
		shedTenant: reg.Counter("aod_router_shed_total", telemetry.Label("reason", "tenant"), "Requests shed by admission control."),
		shedQueue:  reg.Counter("aod_router_shed_total", telemetry.Label("reason", "queue"), "Requests shed by admission control."),
		exhausted:  reg.Counter("aod_router_exhausted_total", "", "Proxied calls that failed every replica within the retry budget."),
		uploadRepl: reg.Counter("aod_router_upload_replication_errors_total", "", "Dataset upload copies that failed on some replica (the upload itself may still have succeeded elsewhere)."),
	}
	for _, rp := range rt.replicas {
		rp := rp
		labels := telemetry.Label("replica", rp.name())
		reg.GaugeFunc("aod_router_replica_up", labels, "1 when the replica answers its health probe, else 0.", func() int64 {
			if rp.up.Load() {
				return 1
			}
			return 0
		})
		reg.GaugeFunc("aod_router_replica_queue_age_seconds", labels, "Age of the replica's oldest queued job, from its last probe.", func() int64 {
			return int64(time.Duration(rp.queueAgeNs.Load()) / time.Second)
		})
		rt.met.rpc = append(rt.met.rpc, reg.Histogram("aod_router_rpc_seconds", labels, "Backend RPC latency per replica."))
	}
}

func (rt *Router) initMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /datasets", rt.postDataset)
	mux.HandleFunc("GET /datasets", rt.listProxy("/datasets"))
	mux.HandleFunc("GET /datasets/{id}", rt.getDataset)
	mux.HandleFunc("POST /jobs", rt.postJob)
	mux.HandleFunc("GET /jobs", rt.listJobs)
	mux.HandleFunc("GET /jobs/{id}", rt.jobProxy)
	mux.HandleFunc("GET /jobs/{id}/stream", rt.streamJob)
	mux.HandleFunc("GET /jobs/{id}/trace", rt.jobProxy)
	mux.HandleFunc("DELETE /jobs/{id}", rt.jobProxy)
	mux.HandleFunc("GET /healthz", rt.healthz)
	mux.HandleFunc("GET /routerz", rt.routerz)
	mux.HandleFunc("GET /stats", rt.stats)
	mux.HandleFunc("GET /metrics", rt.metricsHandler)
	rt.mux = mux
}

// Close stops the health probes. In-flight proxied requests finish on their
// own schedule (the owning http.Server decides their fate).
func (rt *Router) Close() {
	rt.closeOnce.Do(func() { close(rt.stop) })
	rt.wg.Wait()
}

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Identify the hop so clients (and aodload) can tell routed from
	// direct traffic.
	w.Header().Set("X-AOD-Router", "aodrouter/1")
	rt.met.requests.Inc()
	rt.mux.ServeHTTP(w, r)
}

func (rt *Router) logf(format string, args ...any) {
	if rt.cfg.Logf != nil {
		rt.cfg.Logf(format, args...)
	}
}

func (rt *Router) now() time.Time { return rt.cfg.now() }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// ---- retrying RPC core ----

// do runs one RPC against one replica through the (possibly fault-wrapped)
// transport, recording per-replica latency and passively marking the
// replica down on transport errors — the probe loop will mark it back up.
// An attempt ended by the caller's own cancellation says nothing about the
// replica and leaves it up; the router's attempt timeouts end an attempt
// with a deadline, not a cancellation, so they still mark it down.
func (rt *Router) do(rp *replica, req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := rt.transport.RoundTrip(req)
	rt.met.rpc[rp.idx].Observe(time.Since(t0))
	if err != nil && !errors.Is(req.Context().Err(), context.Canceled) {
		rt.setUp(rp, false, err.Error())
	}
	return resp, err
}

// rpcResult is what tryReplicas hands back: either a conclusive response
// (body open, caller closes) or the evidence of exhaustion.
type rpcResult struct {
	resp     *http.Response // nil when every attempt failed
	rp       *replica       // replica that produced resp (or the last one tried)
	attempts int

	// Evidence from the last retryable failure, for an honest error reply.
	lastStatus     int
	lastRetryAfter string
	lastBody       []byte
	lastErr        error
}

// tryReplicas walks the candidates in order (cycling if attempts remain),
// retrying with jittered exponential backoff until a conclusive response
// arrives or the attempt/wall-clock budget runs out. Transport errors,
// timeouts, and 5xx responses fail over; any 2xx–4xx response is conclusive
// and returned as-is — except 404 when retry404 is set, for calls where
// "not found here" can mean "found on a sibling" (datasets still
// replicating, jobs after a failover). Only safe for idempotent calls; see
// the package comment for why submits qualify.
func (rt *Router) tryReplicas(ctx context.Context, cands []*replica, retry404 bool, build func(ctx context.Context, base string) (*http.Request, error)) rpcResult {
	deadline := rt.now().Add(rt.cfg.RetryBudget)
	res := rpcResult{}
	for {
		for _, rp := range cands {
			if res.attempts >= rt.cfg.MaxAttempts || !rt.now().Before(deadline) {
				rt.met.exhausted.Inc()
				return res
			}
			if res.attempts > 0 {
				rt.met.retries.Inc()
				if !rt.sleep(ctx, rt.backoff(res.attempts)) {
					res.lastErr = ctx.Err()
					return res
				}
			}
			res.attempts++
			res.rp = rp
			actx, cancel := context.WithDeadline(ctx, minTime(deadline, rt.now().Add(rt.cfg.AttemptTimeout)))
			req, err := build(actx, rp.base)
			if err != nil {
				cancel()
				res.lastErr = err
				return res // a request we cannot build will not improve with retries
			}
			resp, err := rt.do(rp, req)
			if err != nil {
				cancel()
				res.lastErr = err
				continue
			}
			if resp.StatusCode >= 500 || (retry404 && resp.StatusCode == http.StatusNotFound) {
				res.lastStatus = resp.StatusCode
				res.lastRetryAfter = resp.Header.Get("Retry-After")
				res.lastBody, _ = io.ReadAll(io.LimitReader(resp.Body, 8<<10))
				io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
				resp.Body.Close()
				cancel()
				continue
			}
			resp.Body = &cancelOnClose{rc: resp.Body, cancel: cancel}
			res.resp = resp
			return res
		}
	}
}

// exhaustedReply turns a nil-resp rpcResult into the most honest error we
// can give: the backend's own last 5xx (with its Retry-After) if one was
// seen, else a 502 naming the transport failure.
func (rt *Router) exhaustedReply(w http.ResponseWriter, res rpcResult) {
	w.Header().Set("X-AOD-Router-Attempts", strconv.Itoa(res.attempts))
	if res.lastStatus != 0 {
		if res.lastRetryAfter != "" {
			w.Header().Set("Retry-After", res.lastRetryAfter)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(res.lastStatus)
		w.Write(res.lastBody)
		return
	}
	err := res.lastErr
	if err == nil {
		err = errors.New("all replicas unavailable")
	}
	writeErr(w, http.StatusBadGateway, fmt.Errorf("router: %d attempts failed: %w", res.attempts, err))
}

// cancelOnClose ties an attempt's context to its response body lifetime.
type cancelOnClose struct {
	rc     io.ReadCloser
	cancel context.CancelFunc
}

func (c *cancelOnClose) Read(p []byte) (int, error) { return c.rc.Read(p) }
func (c *cancelOnClose) Close() error {
	err := c.rc.Close()
	c.cancel()
	return err
}

func (rt *Router) backoff(attempt int) time.Duration {
	d := rt.cfg.BackoffBase
	for i := 1; i < attempt && d < rt.cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > rt.cfg.BackoffMax {
		d = rt.cfg.BackoffMax
	}
	rt.jitterMu.Lock()
	f := 0.5 + rt.jitter.Float64() // [0.5, 1.5): desynchronizes competing retriers
	rt.jitterMu.Unlock()
	return time.Duration(float64(d) * f)
}

func (rt *Router) sleep(ctx context.Context, d time.Duration) bool {
	select {
	case <-time.After(d):
		return true
	case <-ctx.Done():
		return false
	case <-rt.stop:
		return false
	}
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// readBody slurps a conclusive response and closes it.
func readBody(resp *http.Response) []byte {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	resp.Body.Close()
	return raw
}

// forward relays a conclusive backend response to the client, with the
// attempt count stamped on.
func forward(w http.ResponseWriter, resp *http.Response, body []byte, attempts int) {
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set("X-AOD-Router-Attempts", strconv.Itoa(attempts))
	w.WriteHeader(resp.StatusCode)
	w.Write(body)
}

// ---- job id namespacing ----

// The router namespaces replica-local job ids as "r<i>.<localID>" so ids
// stay unique across the fleet and route back to their home replica without
// any router-side table (the submit memory is an optimization on top, and
// the authority for jobs that failed over).
func splitJobID(gid string) (idx int, local string, ok bool) {
	if len(gid) < 4 || gid[0] != 'r' {
		return 0, "", false
	}
	dot := strings.IndexByte(gid, '.')
	if dot < 2 {
		return 0, "", false
	}
	n, err := strconv.Atoi(gid[1:dot])
	if err != nil || n < 0 {
		return 0, "", false
	}
	return n, gid[dot+1:], true
}

// resolveJob maps a client-facing job id to (replica, local id). The submit
// memory wins when it has the job — after a failover it points at the new
// home — falling back to the id's embedded replica index.
func (rt *Router) resolveJob(gid string) (rec *submitRecord, idx int, local string, ok bool) {
	if r, found := rt.submits.get(gid); found {
		return &r, r.replica, r.localID, true
	}
	idx, local, ok = splitJobID(gid)
	if !ok || idx >= len(rt.replicas) {
		return nil, 0, "", false
	}
	return nil, idx, local, true
}

// rewriteID renames "id" in a JSON object body to the router-namespaced id.
func rewriteID(raw []byte, gid string) []byte {
	var m map[string]any
	if json.Unmarshal(raw, &m) != nil {
		return raw
	}
	if _, has := m["id"]; !has {
		return raw
	}
	m["id"] = gid
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return raw
	}
	return append(out, '\n')
}
