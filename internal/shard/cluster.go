package shard

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"aod/internal/core"
	"aod/internal/dataset"
	"aod/internal/telemetry"
)

// Config tunes a Cluster's failure policy. The zero value selects defaults.
type Config struct {
	// DialTimeout bounds connecting + handshaking one worker (default 5s).
	DialTimeout time.Duration
	// CallTimeout bounds one level-slice round trip (default 2m).
	CallTimeout time.Duration
	// StragglerAfter re-dispatches a slice to a second worker when the first
	// has not answered after this long, taking whichever result lands first
	// (default 15s; 0 disables re-dispatch, relying on CallTimeout alone).
	StragglerAfter time.Duration
	// Logf, when non-nil, receives one line per notable event.
	Logf func(format string, args ...any)
	// Metrics, when non-nil, receives the cluster's RPC round-trip histogram
	// and retry/re-dispatch counters.
	Metrics *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.DialTimeout == 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.CallTimeout == 0 {
		c.CallTimeout = 2 * time.Minute
	}
	if c.StragglerAfter == 0 {
		c.StragglerAfter = 15 * time.Second
	}
	if c.StragglerAfter < 0 {
		c.StragglerAfter = 0
	}
	return c
}

// WorkerStatus is one worker's health and assignment record, surfaced by the
// aodserver /stats endpoint.
type WorkerStatus struct {
	Addr string `json:"addr"`
	// Healthy reflects the worker's last interaction: a successful handshake
	// or slice sets it, any failure clears it (the next job retries it
	// regardless — dead workers cost one dial timeout per job, not eternal
	// exile).
	Healthy bool `json:"healthy"`
	// Sessions counts successful handshakes; AssignedTasks counts node tasks
	// dispatched (including tasks later re-dispatched elsewhere).
	Sessions      uint64 `json:"sessions"`
	AssignedTasks uint64 `json:"assignedTasks"`
	// Failures counts dial, handshake, and slice failures.
	Failures  uint64 `json:"failures"`
	LastError string `json:"lastError,omitempty"`
}

// Cluster is the coordinator-side shard pool over a fixed set of worker
// addresses. It implements core.ShardPool: Open dials every worker for one
// job (shipping the dataset only where the fingerprint misses), and the
// session it returns slices levels across the live workers with per-shard
// timeouts, retry-on-another-shard, and straggler re-dispatch. A Cluster is
// safe for concurrent use by many jobs.
type Cluster struct {
	addrs []string
	cfg   Config
	// dial opens the transport to one worker: TCP in production, in-process
	// pipes under the loopback transport.
	dial func(ctx context.Context, addr string) (net.Conn, error)

	mu    sync.Mutex
	state map[string]*WorkerStatus

	// Metric handles (nil-safe when Config.Metrics is nil).
	rpcHist    *telemetry.Histogram
	retries    *telemetry.Counter
	redispatch *telemetry.Counter
	txBytes    *telemetry.Counter
	rxBytes    *telemetry.Counter
	frames     *telemetry.Counter
}

// initMetrics resolves the cluster's metric handles from Config.Metrics.
func (c *Cluster) initMetrics() {
	r := c.cfg.Metrics
	if r == nil {
		return
	}
	c.rpcHist = r.Histogram("aod_shard_rpc_seconds", "", "Level-slice RPC round-trip latency.")
	c.retries = r.Counter("aod_shard_retries_total", "", "Slices retried on another worker after a failure.")
	c.redispatch = r.Counter("aod_shard_redispatch_total", "", "Straggling slices re-dispatched to a second worker.")
	c.txBytes = r.Counter("aod_shard_bytes_total", telemetry.Label("dir", "tx"), "Shard protocol bytes by direction.")
	c.rxBytes = r.Counter("aod_shard_bytes_total", telemetry.Label("dir", "rx"), "Shard protocol bytes by direction.")
	c.frames = r.Counter("aod_shard_frames_total", "", "Shard protocol frames sent and received.")
}

// New returns a Cluster over TCP worker addresses (host:port).
func New(addrs []string, cfg Config) *Cluster {
	c := &Cluster{
		addrs: append([]string(nil), addrs...),
		cfg:   cfg.withDefaults(),
		state: make(map[string]*WorkerStatus),
	}
	c.initMetrics()
	c.dial = func(ctx context.Context, addr string) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
	for _, a := range c.addrs {
		c.state[a] = &WorkerStatus{Addr: a}
	}
	return c
}

// Addrs returns the configured worker addresses.
func (c *Cluster) Addrs() []string { return append([]string(nil), c.addrs...) }

// Snapshot returns every worker's status, ordered by address.
func (c *Cluster) Snapshot() []WorkerStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerStatus, 0, len(c.state))
	for _, st := range c.state {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Close releases the cluster. Sessions own their connections, so this is
// bookkeeping only; it exists for symmetry with future pooled transports.
func (c *Cluster) Close() {}

func (c *Cluster) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

func (c *Cluster) note(addr string, fn func(st *WorkerStatus)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.state[addr]
	if !ok {
		st = &WorkerStatus{Addr: addr}
		c.state[addr] = st
	}
	fn(st)
}

// Open implements core.ShardPool: one handshake per worker, in parallel,
// returning a session over the workers that answered. The config ships
// whole; a worker's TaskRunner ignores TimeLimit, because aborts arrive as
// canceled calls.
func (c *Cluster) Open(ctx context.Context, tbl *dataset.Table, cfg core.Config) (core.ShardSession, error) {
	hello := &helloMsg{
		Proto:       protoVersion,
		Fingerprint: dataset.Fingerprint(tbl),
		Rows:        tbl.NumRows(),
		Cols:        tbl.NumCols(),
		Config:      cfg,
	}
	clients := make([]*workerClient, len(c.addrs))
	var wg sync.WaitGroup
	for i, addr := range c.addrs {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			dctx, cancel := context.WithTimeout(ctx, c.cfg.DialTimeout)
			defer cancel()
			conn, err := c.dial(dctx, addr)
			if err != nil {
				c.noteFailure(addr, fmt.Errorf("dial: %w", err))
				return
			}
			w := &workerClient{
				addr: addr, conn: conn,
				br: bufio.NewReader(conn), bw: bufio.NewWriter(conn),
				txBytes: c.txBytes, rxBytes: c.rxBytes, frames: c.frames,
			}
			if err := w.handshake(dctx, c.cfg.DialTimeout, hello, tbl); err != nil {
				c.noteFailure(addr, err)
				return
			}
			c.note(addr, func(st *WorkerStatus) {
				st.Healthy = true
				st.Sessions++
				st.LastError = ""
			})
			clients[i] = w
		}(i, addr)
	}
	wg.Wait()

	live := clients[:0:0]
	for _, w := range clients {
		if w != nil {
			live = append(live, w)
		}
	}
	if len(live) == 0 {
		return nil, errors.New("shard: no worker reachable")
	}
	return &session{c: c, clients: live}, nil
}

func (c *Cluster) noteFailure(addr string, err error) {
	c.logf("shard: worker %s: %v", addr, err)
	c.note(addr, func(st *WorkerStatus) {
		st.Healthy = false
		st.Failures++
		st.LastError = err.Error()
	})
}

// session is one job's window onto the live workers.
type session struct {
	c       *Cluster
	mu      sync.Mutex
	clients []*workerClient
}

// alive returns the clients whose connections have not failed. It never
// blocks behind an in-flight call — the death flag is atomic — so a
// straggling worker cannot stall the next level's dispatch.
func (s *session) alive() []*workerClient {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*workerClient, 0, len(s.clients))
	for _, w := range s.clients {
		if !w.dead.Load() {
			out = append(out, w)
		}
	}
	return out
}

func (s *session) Width() int { return len(s.alive()) }

// Close kills every client. Closing a connection with a call in flight
// makes that call fail immediately, so Close never waits out a timeout.
func (s *session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, w := range s.clients {
		w.kill()
	}
	s.clients = nil
	return nil
}

type sliceOutcome struct {
	rs   []core.NodeResult
	err  error
	from *workerClient
}

// RunSlice implements core.ShardSession. The slice runs on the shard's home
// worker first; a straggler timer re-dispatches it to the next worker
// (first answer wins), and any failure retries the remaining workers before
// giving up — at which point the caller executes the slice locally.
func (s *session) RunSlice(ctx context.Context, shard, level int, tasks []core.NodeTask) ([]core.NodeResult, error) {
	ordered := s.alive()
	if len(ordered) == 0 {
		return nil, errors.New("shard: no live workers")
	}
	start := shard % len(ordered)
	ordered = append(ordered[start:len(ordered):len(ordered)], ordered[:start]...)

	trace, levelSpan := telemetry.FromContext(ctx)
	msg := &levelMsg{Level: level, Tasks: tasks, Trace: trace.ID()}
	ch := make(chan sliceOutcome, len(ordered))
	run := func(w *workerClient) {
		s.c.note(w.addr, func(st *WorkerStatus) { st.AssignedTasks += uint64(len(tasks)) })
		// One span per dispatch attempt, parented under the level's span;
		// failed attempts stay in the trace (labeled with the error) so
		// retries and straggler races are visible.
		span := trace.Start(levelSpan, "rpc")
		span.SetLabel("worker %s", w.addr)
		span.Attr("tasks", int64(len(tasks)))
		t0 := time.Now()
		rs, err := w.runLevel(ctx, s.c.cfg.CallTimeout, msg)
		s.c.rpcHist.Observe(time.Since(t0))
		if err == nil && len(rs.Results) != len(tasks) {
			err = fmt.Errorf("shard: worker %s returned %d results for %d tasks", w.addr, len(rs.Results), len(tasks))
			w.kill()
		}
		if err != nil {
			span.SetLabel("worker %s: %v", w.addr, err)
			span.End()
			ch <- sliceOutcome{err: err, from: w}
			return
		}
		span.End()
		// Worker-side spans stitch under this attempt's rpc span. Re-basing
		// absorbs clock skew; alignment is accurate to the round trip.
		trace.AddRemote(span.ID(), rs.Spans)
		ch <- sliceOutcome{rs: rs.Results, from: w}
	}

	go run(ordered[0])
	pending, next := 1, 1
	var stragglerC <-chan time.Time
	if s.c.cfg.StragglerAfter > 0 && len(ordered) > 1 {
		tm := time.NewTimer(s.c.cfg.StragglerAfter)
		defer tm.Stop()
		stragglerC = tm.C
	}
	var firstErr error
	for pending > 0 {
		select {
		case o := <-ch:
			pending--
			if o.err == nil {
				s.c.note(o.from.addr, func(st *WorkerStatus) { st.Healthy = true })
				return o.rs, nil
			}
			s.c.noteFailure(o.from.addr, o.err)
			if firstErr == nil {
				firstErr = o.err
			}
			// Retry on the next untried worker once nothing is in flight.
			if pending == 0 && next < len(ordered) {
				s.c.retries.Inc()
				go run(ordered[next])
				next++
				pending++
			}
		case <-stragglerC:
			stragglerC = nil
			if next < len(ordered) {
				s.c.logf("shard: level %d slice straggling on %s; re-dispatching to %s",
					level, ordered[0].addr, ordered[next].addr)
				s.c.redispatch.Inc()
				go run(ordered[next])
				next++
				pending++
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return nil, firstErr
}
