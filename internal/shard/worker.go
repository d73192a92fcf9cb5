package shard

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"aod/internal/core"
	"aod/internal/dataset"
	"aod/internal/telemetry"
)

// WorkerOptions tunes a Worker. The zero value is ready for production use.
type WorkerOptions struct {
	// MaxDatasets bounds the prepared-dataset cache; past it the least
	// recently used dataset (table + single-column partitions) is dropped.
	// 0 selects the default (16); negative is unbounded.
	MaxDatasets int
	// Logf, when non-nil, receives one line per session event.
	Logf func(format string, args ...any)
	// LevelHook, when non-nil, runs before each level slice is processed; a
	// non-nil error makes the worker drop the connection without replying —
	// the fault-injection seam behind the worker-death tests.
	LevelHook func(level, tasks int) error
	// Metrics, when non-nil, receives the worker's counters and slice-exec
	// latency histogram (the aodworker /metrics surface).
	Metrics *telemetry.Registry
}

// Worker is the shard-worker server: it caches datasets by content
// fingerprint (building single-column partitions once per dataset) and
// validates the lattice-level task slices coordinators send it. One Worker
// serves any number of concurrent connections; each connection is one job
// session with its own TaskRunner.
type Worker struct {
	opts WorkerOptions

	mu    sync.Mutex
	cache map[string]*cachedDataset
	tick  uint64

	// Counters, exposed for logging and tests.
	sessions     atomic.Uint64
	levelsRun    atomic.Uint64
	tasksRun     atomic.Uint64
	datasetLoads atomic.Uint64

	// Wire-level counters (bytes and frames across all connections), the
	// worker-side mirror of the cluster's aod_shard_* metrics.
	bytesTx    atomic.Uint64
	bytesRx    atomic.Uint64
	wireFrames atomic.Uint64

	// execHist observes per-slice execution latency (nil without Metrics).
	execHist *telemetry.Histogram
}

type cachedDataset struct {
	prep *core.PreparedTable
	used uint64
}

// NewWorker returns a Worker with an empty dataset cache.
func NewWorker(opts WorkerOptions) *Worker {
	if opts.MaxDatasets == 0 {
		opts.MaxDatasets = 16
	}
	if opts.MaxDatasets < 0 {
		opts.MaxDatasets = 0 // unbounded
	}
	w := &Worker{opts: opts, cache: make(map[string]*cachedDataset)}
	if r := opts.Metrics; r != nil {
		// The atomics below stay the source of truth; the registry samples
		// them at scrape time, so nothing is double-counted.
		r.CounterFunc("aodworker_sessions_total", "", "Job sessions accepted.", w.sessions.Load)
		r.CounterFunc("aodworker_levels_total", "", "Level slices processed.", w.levelsRun.Load)
		r.CounterFunc("aodworker_tasks_total", "", "Node tasks processed.", w.tasksRun.Load)
		r.CounterFunc("aodworker_dataset_loads_total", "", "Dataset payloads shipped to this worker.", w.datasetLoads.Load)
		r.CounterFunc("aod_shard_bytes_total", telemetry.Label("dir", "tx"), "Shard protocol bytes by direction.", w.bytesTx.Load)
		r.CounterFunc("aod_shard_bytes_total", telemetry.Label("dir", "rx"), "Shard protocol bytes by direction.", w.bytesRx.Load)
		r.CounterFunc("aod_shard_frames_total", "", "Shard protocol frames sent and received.", w.wireFrames.Load)
		r.GaugeFunc("aodworker_cached_datasets", "", "Prepared datasets currently cached.", func() int64 { return int64(w.CachedDatasets()) })
		w.execHist = r.Histogram("aodworker_slice_exec_seconds", "", "Per-slice execution latency.")
	}
	return w
}

// CachedDatasets returns the number of datasets currently prepared.
func (w *Worker) CachedDatasets() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.cache)
}

// TasksRun returns the number of node tasks processed since start.
func (w *Worker) TasksRun() uint64 { return w.tasksRun.Load() }

// DatasetLoads returns how many times a dataset payload was shipped to this
// worker — the fingerprint handshake keeps it at one per distinct dataset,
// however many jobs run against it.
func (w *Worker) DatasetLoads() uint64 { return w.datasetLoads.Load() }

// Sessions returns the number of sessions accepted since start.
func (w *Worker) Sessions() uint64 { return w.sessions.Load() }

func (w *Worker) logf(format string, args ...any) {
	if w.opts.Logf != nil {
		w.opts.Logf(format, args...)
	}
}

// Serve accepts connections until the listener closes, one session per
// connection.
func (w *Worker) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go w.ServeConn(conn)
	}
}

// ServeConn runs one job session over the connection and closes it when the
// session ends (coordinator done, transport error, or fault injection).
func (w *Worker) ServeConn(conn net.Conn) {
	defer conn.Close()
	w.sessions.Add(1)
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)

	runner, err := w.handshake(conn, br, bw)
	if err != nil {
		w.logf("shard worker: %s: handshake: %v", conn.RemoteAddr(), err)
		return
	}

	// Span offsets within this session are measured from the session's own
	// start — an arbitrary zero the coordinator re-bases (AddRemote) under
	// its RPC span. prevEncodeNs carries the previous reply's serialization
	// time: a reply cannot time its own encoding (it is part of the payload),
	// so each slice reports its predecessor's.
	sessionStart := time.Now()
	var prevEncodeNs int64
	var prevHits, prevBuilds uint64
	for {
		f, err := w.readFrame(br)
		if err != nil {
			return // session over (EOF on clean close)
		}
		if f.T != "level" || f.Level == nil {
			w.reply(bw, &frame{T: "result", Result: &resultMsg{Error: fmt.Sprintf("unexpected %q frame", f.T)}})
			return
		}
		if hook := w.opts.LevelHook; hook != nil {
			if err := hook(f.Level.Level, len(f.Level.Tasks)); err != nil {
				w.logf("shard worker: dropping connection at level %d: %v", f.Level.Level, err)
				return // abrupt death, no reply
			}
		}
		execStart := time.Since(sessionStart)
		t0 := time.Now()
		results, connOK, err := w.runLevelMonitored(conn, runner, f.Level.Tasks)
		if err != nil {
			w.logf("shard worker: %s: refusing level %d: %v", conn.RemoteAddr(), f.Level.Level, err)
			w.reply(bw, &frame{T: "result", Result: &resultMsg{Error: err.Error()}})
			return
		}
		execDur := time.Since(t0)
		w.execHist.Observe(execDur)
		w.levelsRun.Add(1)
		w.tasksRun.Add(uint64(len(f.Level.Tasks)))
		if !connOK {
			w.logf("shard worker: connection lost mid-level; dropping slice")
			return
		}
		res := &resultMsg{Results: results}
		if f.Level.Trace != "" {
			// The echoed trace ID (Label) is the propagation proof the
			// coordinator-side tests assert on.
			hits, builds := runner.PartitionCacheStats()
			res.Spans = []telemetry.WireSpan{{
				Name:    "worker-exec",
				Label:   f.Level.Trace,
				StartNs: int64(execStart),
				DurNs:   int64(execDur),
				Attrs: map[string]int64{
					"tasks":           int64(len(f.Level.Tasks)),
					"partitionHits":   int64(hits - prevHits),
					"partitionBuilds": int64(builds - prevBuilds),
					"prevEncodeNs":    prevEncodeNs,
				},
			}}
			prevHits, prevBuilds = hits, builds
		}
		e0 := time.Now()
		ok := w.reply(bw, &frame{T: "result", Result: res})
		prevEncodeNs = int64(time.Since(e0))
		if !ok {
			return
		}
	}
}

// runLevelMonitored executes a slice under a context that is canceled if the
// connection dies mid-computation, so a slice abandoned by its coordinator
// (job canceled, call timed out, straggler lost the race) stops burning CPU
// instead of validating to the end. The protocol is strict
// request/response — while a slice computes the coordinator sends nothing —
// so a raw read completing during computation means the peer is gone (or
// violated the protocol; either way the session is over and the connection
// reports not-OK). The monitor is kicked off the connection via a read
// deadline before the reply is written, so it can never consume bytes of a
// subsequent frame. A slice the runner refuses comes back as its error.
func (w *Worker) runLevelMonitored(conn net.Conn, runner *core.TaskRunner, tasks []core.NodeTask) ([]core.NodeResult, bool, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var lost atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		var b [1]byte
		n, err := conn.Read(b[:])
		if n > 0 || !isTimeout(err) {
			lost.Store(true)
			cancel()
		}
	}()
	results, err := runner.RunLevel(ctx, tasks)
	conn.SetReadDeadline(time.Now()) // unblock the monitor
	<-done
	conn.SetReadDeadline(time.Time{})
	return results, !lost.Load(), err
}

// isTimeout reports the error of a read interrupted by the monitor kick-out
// deadline (as opposed to a real connection failure).
func isTimeout(err error) bool {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// readFrame reads one frame, folding its size into the wire counters.
func (w *Worker) readFrame(br *bufio.Reader) (*frame, error) {
	f, n, err := readFrame(br)
	w.bytesRx.Add(uint64(n))
	if err == nil {
		w.wireFrames.Add(1)
	}
	return f, err
}

// handshake negotiates the session: protocol version, dataset (shipping the
// payload when the fingerprint misses the cache), and configuration.
func (w *Worker) handshake(conn net.Conn, br *bufio.Reader, bw *bufio.Writer) (*core.TaskRunner, error) {
	f, err := w.readFrame(br)
	if err != nil {
		return nil, err
	}
	if f.T != "hello" || f.Hello == nil {
		return nil, fmt.Errorf("expected hello, got %q", f.T)
	}
	h := f.Hello
	if h.Proto != protoVersion {
		w.reply(bw, &frame{T: "ack", Ack: &ackMsg{Error: fmt.Sprintf("protocol %d not supported (want %d)", h.Proto, protoVersion)}})
		return nil, fmt.Errorf("protocol mismatch: %d", h.Proto)
	}

	prep := w.lookup(h.Fingerprint)
	if prep == nil {
		if !w.reply(bw, &frame{T: "ack", Ack: &ackMsg{OK: true, NeedDataset: true}}) {
			return nil, fmt.Errorf("requesting dataset")
		}
		df, err := w.readFrame(br)
		if err != nil {
			return nil, err
		}
		if df.T != "dataset" || df.Dataset == nil {
			return nil, fmt.Errorf("expected dataset, got %q", df.T)
		}
		w.datasetLoads.Add(1)
		tbl := df.Dataset
		if got := dataset.Fingerprint(tbl); got != h.Fingerprint {
			err := fmt.Errorf("dataset fingerprint mismatch: got %s, want %s", got, h.Fingerprint)
			w.reply(bw, &frame{T: "ack", Ack: &ackMsg{Error: err.Error()}})
			return nil, err
		}
		prep = core.Prepare(tbl)
		w.store(h.Fingerprint, prep)
		w.logf("shard worker: cached dataset %.12s (%d rows × %d cols)", h.Fingerprint, tbl.NumRows(), tbl.NumCols())
	}

	runner, err := prep.NewTaskRunner(h.Config)
	if err != nil {
		w.reply(bw, &frame{T: "ack", Ack: &ackMsg{Error: "config: " + err.Error()}})
		return nil, err
	}
	if !w.reply(bw, &frame{T: "ack", Ack: &ackMsg{OK: true}}) {
		return nil, fmt.Errorf("acking handshake")
	}
	return runner, nil
}

func (w *Worker) reply(bw *bufio.Writer, f *frame) bool {
	n, err := writeFrame(bw, f)
	if err != nil {
		return false
	}
	w.bytesTx.Add(uint64(n))
	w.wireFrames.Add(1)
	return bw.Flush() == nil
}

// lookup returns the cached prepared dataset and refreshes its LRU stamp.
func (w *Worker) lookup(fingerprint string) *core.PreparedTable {
	w.mu.Lock()
	defer w.mu.Unlock()
	e, ok := w.cache[fingerprint]
	if !ok {
		return nil
	}
	w.tick++
	e.used = w.tick
	return e.prep
}

// store caches the prepared dataset, evicting the least recently used entry
// past the bound. Sessions holding an evicted PreparedTable keep using it —
// eviction only drops the cache reference.
func (w *Worker) store(fingerprint string, prep *core.PreparedTable) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.tick++
	w.cache[fingerprint] = &cachedDataset{prep: prep, used: w.tick}
	if w.opts.MaxDatasets <= 0 {
		return
	}
	for len(w.cache) > w.opts.MaxDatasets {
		oldest, min := "", uint64(0)
		for fp, e := range w.cache {
			if oldest == "" || e.used < min {
				oldest, min = fp, e.used
			}
		}
		delete(w.cache, oldest)
	}
}
