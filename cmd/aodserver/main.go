// Command aodserver serves (approximate) order-dependency discovery as an
// async HTTP JSON service: upload datasets once, submit discovery jobs
// against them, poll for results, cancel long runs. Identical re-submissions
// (same dataset content, same effective options) are served from an LRU
// result cache without re-validating.
//
// Usage:
//
//	aodserver [-addr :8711] [-workers N | -workers host:port,...] [-queue N]
//	          [-cache N] [-max-datasets N] [-max-jobs N] [-max-upload BYTES]
//	          [-data-dir DIR] [-max-report-bytes N] [-max-queue-wait D]
//	          [-straggler-after D] [-shard-quantum N] [-pprof-addr ADDR]
//	          [-serial-cost-max N] [-shard-cost-min N]
//
// -workers accepts either an integer (local discovery worker-pool size, the
// default GOMAXPROCS) or a comma-separated list of aodworker addresses: then
// each job's lattice levels are sliced across those worker processes
// (datasets ship to each worker once, cached by content fingerprint), with
// per-shard timeouts, straggler re-dispatch, and local fallback — a dead
// worker slows jobs down instead of failing them. Per-worker health and
// assignment counts appear in GET /stats under "shards". The shard pool
// sizes each job's worker fan-out from its work estimate: one worker per
// -shard-quantum of work, so small sharded jobs skip the per-worker
// partition-duplication tax.
//
// Each job's work estimate (rows × cols × lattice levels) routes it to the
// serial in-process executor (at or below -serial-cost-max), the local worker
// pool (mid-range), or the shard pool (at or above -shard-cost-min, when
// -workers lists addresses). All three produce identical reports; only
// latency differs. -shard-cost-min -1 with a large -serial-cost-max shards
// every job when a pool is configured and otherwise runs each job serially
// unless it asks for parallelism. Routing counts appear in /stats and
// /metrics as aod_jobs_routed_total{executor=...}.
//
// With -data-dir the server is durable: uploaded datasets and completed
// reports are written through to DIR (atomic write-then-rename, corrupt
// files quarantined rather than fatal) and recovered on restart, so a
// restarted server lists every previously uploaded dataset and serves
// previously computed reports without re-running discovery. Without the
// flag all state is in-memory, exactly as before. -max-report-bytes bounds
// the persisted report tier: past the budget, the least recently used
// report files are deleted (datasets are never GC'd).
//
// Jobs are scheduled by estimated size (rows × cols × lattice levels),
// smallest first — a cheap probe is not stuck behind a wide-table crawl —
// and running jobs stream per-level partial results: GET /jobs/{id} shows
// the latest partial report, GET /jobs/{id}/stream is a live NDJSON feed.
//
// Endpoints (see the README for a curl walkthrough):
//
//	POST   /datasets        upload a CSV body, returns the dataset record
//	GET    /datasets        list datasets
//	GET    /datasets/{id}   one dataset record
//	POST   /jobs            submit {"datasetId": ..., "options": {...}}
//	GET    /jobs            list jobs
//	GET    /jobs/{id}       job status; partial report while running, report once done
//	GET    /jobs/{id}/stream NDJSON stream of per-level progress events
//	GET    /jobs/{id}/trace  the job's span tree (queue wait, stages, per-level, shard RPCs)
//	DELETE /jobs/{id}       cancel a job
//	GET    /healthz         liveness probe
//	GET    /stats           counters (jobs, cache hits/misses, in-flight, ...)
//	GET    /metrics         Prometheus text exposition (latency histograms included)
//
// With -pprof-addr the runtime profiles (CPU, heap, goroutine, ...) are
// served on a second, private listener at /debug/pprof/.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"aod"
	"aod/internal/service"
	"aod/internal/store"
)

func main() {
	addr := flag.String("addr", ":8711", "listen address (host:port; port 0 picks an ephemeral port)")
	workersFlag := flag.String("workers", "", "an integer sizes the local discovery worker pool (default GOMAXPROCS); a comma-separated host:port list instead slices jobs across those aodworker processes")
	queue := flag.Int("queue", 64, "job queue depth (backpressure bound; negative = unbounded)")
	cacheSize := flag.Int("cache", 128, "result-cache capacity in reports (negative disables)")
	maxDatasets := flag.Int("max-datasets", 256, "dataset registry bound (negative = unbounded)")
	maxJobs := flag.Int("max-jobs", 1024, "retained job-record bound; oldest finished jobs are evicted (negative = unbounded)")
	maxUpload := flag.Int64("max-upload", service.DefaultMaxUploadBytes, "maximum CSV upload size in bytes")
	dataDir := flag.String("data-dir", "", "persist datasets and reports under this directory (empty = in-memory only)")
	maxReportBytes := flag.Int64("max-report-bytes", 0, "report-store disk budget in bytes; least recently used reports are evicted past it (0 = unbounded; needs -data-dir)")
	straggler := flag.Duration("straggler-after", 15*time.Second, "re-dispatch a shard slice not answered after this long (sharded mode; negative disables)")
	serialCostMax := flag.Int64("serial-cost-max", service.DefaultSerialCostMax, "routing: run jobs with work estimate (rows×cols×levels) at or below this serially (negative = no serial tier)")
	shardCostMin := flag.Int64("shard-cost-min", service.DefaultShardCostMin, "routing: dispatch jobs with work estimate at or above this to the shard pool (negative = shard everything)")
	shardQuantum := flag.Int64("shard-quantum", 0, "shard pool: engage one worker per this much estimated work of a job, bounded by the pool size (0 = built-in default; negative = always the full pool)")
	partitionCache := flag.Int64("partition-cache-bytes", service.DefaultPartitionCacheBytes, "byte budget of the cross-job partition cache and shared arena; repeat jobs over a registered dataset skip cold-start partitioning (negative disables)")
	maxQueueWait := flag.Duration("max-queue-wait", time.Minute, "age bound for cost-ordered scheduling: a job queued this long runs next regardless of size (negative disables)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty disables; keep it off public interfaces)")
	peersFlag := flag.String("peers", "", "comma-separated base URLs of replica aodservers to ask for cached reports before recomputing (result-cache peering)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "on SIGTERM/SIGINT: flip /healthz unready, refuse new jobs, and finish in-flight jobs for up to this long before exiting")
	flag.Parse()

	// -workers is polymorphic: "-workers 4" sizes the local pool (the
	// historical meaning), "-workers host:a,host:b" shards across aodworker
	// processes instead.
	workers := runtime.GOMAXPROCS(0)
	var shardAddrs []string
	if *workersFlag != "" {
		if n, err := strconv.Atoi(*workersFlag); err == nil {
			workers = n
		} else {
			for _, a := range strings.Split(*workersFlag, ",") {
				a = strings.TrimSpace(a)
				if a == "" {
					continue
				}
				// Reject early rather than starting a server that silently
				// fails every dial (e.g. a typo'd pool size like "1O").
				if _, _, err := net.SplitHostPort(a); err != nil {
					fmt.Fprintf(os.Stderr, "aodserver: -workers %q is neither a pool size nor a host:port list (%v)\n", *workersFlag, err)
					os.Exit(2)
				}
				shardAddrs = append(shardAddrs, a)
			}
			if len(shardAddrs) == 0 {
				fmt.Fprintf(os.Stderr, "aodserver: -workers %q is neither a pool size nor an address list\n", *workersFlag)
				os.Exit(2)
			}
		}
	}

	var st *store.Store
	if *dataDir != "" {
		var err error
		if st, err = store.Open(*dataDir); err != nil {
			fmt.Fprintln(os.Stderr, "aodserver:", err)
			os.Exit(1)
		}
		st.SetMaxReportBytes(*maxReportBytes)
	} else if *maxReportBytes > 0 {
		fmt.Fprintln(os.Stderr, "aodserver: -max-report-bytes requires -data-dir")
		os.Exit(2)
	}
	// One registry serves GET /metrics for both the job service (aod_jobs_*,
	// aod_job_seconds, ...) and the shard pool (aod_shard_*).
	metrics := aod.NewMetricsRegistry()
	var pool *aod.ShardPool
	if len(shardAddrs) > 0 {
		pool = aod.DialShardPool(shardAddrs, aod.ShardPoolOptions{
			WorkQuantum:    *shardQuantum,
			StragglerAfter: *straggler,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "aodserver: "+format+"\n", args...)
			},
			Metrics: metrics,
		})
		defer pool.Close()
	}
	var peers []string
	for _, p := range strings.Split(*peersFlag, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, strings.TrimRight(p, "/"))
		}
	}
	svc := service.New(service.Config{
		Workers:       workers,
		QueueDepth:    *queue,
		CacheSize:     *cacheSize,
		MaxDatasets:   *maxDatasets,
		MaxJobHistory: *maxJobs,
		MaxQueueWait:  *maxQueueWait,
		Store:         st,
		ShardPool:     pool,
		Metrics:       metrics,
		Peers:         peers,

		SerialCostMax: *serialCostMax,
		ShardCostMin:  *shardCostMin,

		PartitionCacheBytes: *partitionCache,
	})
	handler := service.NewHandler(svc, service.HandlerConfig{MaxUploadBytes: *maxUpload})

	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aodserver: pprof:", err)
			os.Exit(1)
		}
		fmt.Printf("aodserver pprof on http://%s/debug/pprof/\n", pln.Addr())
		go func() { _ = http.Serve(pln, pprofMux()) }()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aodserver:", err)
		os.Exit(1)
	}
	// The resolved address matters when port 0 was requested.
	fmt.Printf("aodserver listening on %s (%d workers, queue %d, cache %d)\n",
		ln.Addr(), workers, *queue, *cacheSize)
	if st != nil {
		fmt.Printf("aodserver persisting to %s (%d datasets recovered)\n",
			st.Dir(), len(st.Datasets()))
	}
	if pool != nil {
		fmt.Printf("aodserver sharding across %d workers: %s\n",
			len(shardAddrs), strings.Join(shardAddrs, ", "))
	}
	if len(peers) > 0 {
		fmt.Printf("aodserver peering with %d replicas: %s\n",
			len(peers), strings.Join(peers, ", "))
	}

	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		// Graceful drain, not a listener slam: flip /healthz unready (a
		// router stops sending work within one probe), refuse new jobs with
		// 503, let in-flight and queued jobs finish up to -drain-timeout,
		// and only then stop serving — so reads and streams attached to
		// finishing jobs complete normally.
		fmt.Printf("aodserver: %s — draining (timeout %s)\n", s, *drainTimeout)
		svc.BeginDrain()
		drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drainTimeout)
		if err := svc.WaitIdle(drainCtx); err != nil {
			fmt.Fprintln(os.Stderr, "aodserver: drain timeout — abandoning in-flight jobs")
		}
		cancelDrain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "aodserver: shutdown:", err)
		}
		svc.Close()
		fmt.Println("aodserver: drained, exiting")
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "aodserver:", err)
			svc.Close()
			os.Exit(1)
		}
	}
}

// pprofMux exposes the runtime profiles on a dedicated mux rather than
// http.DefaultServeMux, so nothing else ever leaks onto the pprof port.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
