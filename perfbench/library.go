package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"aod/internal/core"
	"aod/internal/dataset"
	"aod/internal/gen"
	"aod/internal/shard"
	"aod/internal/telemetry"
)

// libraryWorkload times one discovery configuration through the library,
// running the same table under each executor in every round.
type libraryWorkload struct {
	rows, cols int
	cfg        core.Config
}

const (
	// libDataSeed fixes the generated table. Discovery time depends on the
	// table down to its row order, so --seed picks only a variant of it
	// (equal work, distinct content) and rotates the executor order.
	libDataSeed = 42
	// poolWorkers and shardWorkers size the parallel executors independently
	// of the host, so runs on different hosts do the same work.
	poolWorkers  = 2
	shardWorkers = 2
	// minRounds is the least number of rounds a run times, however short its
	// window.
	minRounds = 2
)

// libEnv is one set-up of a library workload: the input table, a loopback
// shard cluster, and the reference digest every timed job must reproduce.
type libEnv struct {
	w       libraryWorkload
	tbl     *dataset.Table
	cluster *shard.Cluster
	reg     *telemetry.Registry
	ref     string
}

// setup generates the table and the cluster and runs one untimed job per
// executor; the serial job's digest becomes the reference.
func (w libraryWorkload) setup(ctx context.Context, seed int64, reg *telemetry.Registry) (*libEnv, error) {
	tbl, err := variant(gen.NCVoter(gen.NCVoterConfig{Rows: w.rows, Attrs: w.cols, Seed: libDataSeed}), seedVariant(seed))
	if err != nil {
		return nil, err
	}
	workers := make([]*shard.Worker, shardWorkers)
	for i := range workers {
		workers[i] = shard.NewWorker(shard.WorkerOptions{})
	}
	env := &libEnv{w: w, tbl: tbl, reg: reg, cluster: shard.NewLoopback(shard.Config{Metrics: reg}, workers)}
	for _, lane := range executors {
		_, res, err := env.run(ctx, lane, false)
		if err != nil {
			return nil, err
		}
		d := digestResult(res)
		if lane == "serial" {
			env.ref = d
		} else if d != env.ref {
			return nil, fmt.Errorf("set-up: %s result %s differs from serial %s", lane, d, env.ref)
		}
	}
	return env, nil
}

func (e *libEnv) executor(lane string) core.Executor {
	switch lane {
	case "pool":
		return core.Pool(poolWorkers)
	case "sharded":
		// Quantum -1 engages every worker, so parts frames and fan-out run
		// whatever the table size.
		return core.ShardedQuantum(e.cluster, -1)
	default:
		return core.Serial()
	}
}

// shardCounters are the loopback cluster's cumulative wire counters.
type shardCounters struct {
	tx, rx, parts, retries, redispatch uint64
}

func (e *libEnv) shardCounters() shardCounters {
	if e.reg == nil {
		return shardCounters{}
	}
	c := func(name, labels string) uint64 { return e.reg.Counter(name, labels, "").Value() }
	return shardCounters{
		tx:         c("aod_shard_bytes_total", telemetry.Label("dir", "tx")),
		rx:         c("aod_shard_bytes_total", telemetry.Label("dir", "rx")),
		parts:      c("aod_shard_partition_bytes_total", ""),
		retries:    c("aod_shard_retries_total", ""),
		redispatch: c("aod_shard_redispatch_total", ""),
	}
}

func (a shardCounters) sub(b shardCounters) shardCounters {
	return shardCounters{a.tx - b.tx, a.rx - b.rx, a.parts - b.parts, a.retries - b.retries, a.redispatch - b.redispatch}
}

// jobRecord is one timed discovery job. The fields after cpu are filled for
// traced jobs only.
type jobRecord struct {
	lane      string
	traced    bool
	ok        bool
	wall, cpu time.Duration

	stats              core.Stats
	spans              []telemetry.Span
	allocs, allocBytes uint64
	gcs                uint32
	shard              shardCounters
}

// run executes one discovery job on the lane's executor. A traced job
// carries a span trace (the pipeline's partition-build and level spans, the
// sharded executor's rpc spans and the workers' stitched worker-exec spans)
// under a root "job" span, and records allocation and wire counters.
func (e *libEnv) run(ctx context.Context, lane string, traced bool) (jobRecord, *core.Result, error) {
	rec := jobRecord{lane: lane, traced: traced}
	pipe := core.Pipeline{Executor: e.executor(lane)}
	// Collect the previous job's garbage outside the timing, so a job pays
	// for its own allocations only, whichever executor ran before it.
	runtime.GC()
	var tr *telemetry.Trace
	var root *telemetry.ActiveSpan
	var m0 runtime.MemStats
	var sc0 shardCounters
	if traced {
		tr = telemetry.NewTrace(lane)
		root = tr.Start(0, "job")
		ctx = telemetry.NewContext(ctx, tr, root.ID())
		runtime.ReadMemStats(&m0)
		sc0 = e.shardCounters()
	}
	c0, t0 := selfCPU(), time.Now()
	res, err := pipe.Run(ctx, e.tbl, e.w.cfg)
	rec.wall, rec.cpu = time.Since(t0), selfCPU()-c0
	if err != nil {
		return rec, nil, fmt.Errorf("%s discovery: %w", lane, err)
	}
	if traced {
		root.End()
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		rec.allocs, rec.allocBytes, rec.gcs = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc, m1.NumGC-m0.NumGC
		rec.shard = e.shardCounters().sub(sc0)
		rec.stats = res.Stats
		rec.spans = tr.Spans()
	}
	return rec, res, nil
}

// run sets the workload up setupReps times, then runs rounds until the
// window has passed. Each round runs every executor once, in an order that
// rotates by round, then times the calibration task once. A traced run
// traces every second round; the others stay untraced and give the lane
// latencies and the tracing overhead.
func (w libraryWorkload) run(ctx context.Context, o runOptions) (*runResult, error) {
	var reg *telemetry.Registry
	if o.trace {
		reg = telemetry.NewRegistry()
	}
	env, setupS, err := timedSetups(func() (*libEnv, error) { return w.setup(ctx, o.seed, reg) }, func(e *libEnv) { e.cluster.Close() })
	if err != nil {
		return nil, err
	}
	defer env.cluster.Close()
	res := &runResult{e2e: metricSet{}, layers: zeroLayers()}
	var recs []jobRecord
	rot := int(uint64(o.seed) % uint64(len(executors)))
	cal := newCalibrator()
	rss := sampleRSS(selfPID, 100*time.Millisecond)
	defer rss.stop()
	steal := startSteal()
	start := time.Now()
	for round := 0; round < minRounds || time.Since(start) < o.window; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		traced := o.trace && round%2 == 1
		for i := range executors {
			lane := executors[(round+rot+i)%len(executors)]
			rec, out, err := env.run(ctx, lane, traced)
			res.attempted++
			if err != nil {
				fmt.Fprintln(o.log, "perfbench:", err)
			}
			rec.ok = err == nil && digestResult(out) == env.ref
			if !rec.ok {
				res.failed++
			}
			recs = append(recs, rec)
		}
		cal.sample()
	}
	res.layers["host.steal_share"] = steal.share(o.log)

	walls := map[string][]float64{}
	tracedWalls := map[string][]float64{}
	var cpus []float64
	for _, lane := range executors {
		var laneCPU []float64
		for _, r := range recs {
			switch {
			case !r.ok || r.lane != lane:
			case r.traced:
				tracedWalls[lane] = append(tracedWalls[lane], ms(r.wall))
			default:
				walls[lane] = append(walls[lane], ms(r.wall))
				laneCPU = append(laneCPU, ms(r.cpu))
			}
		}
		cpus = append(cpus, median(laneCPU))
	}
	res.e2e["setup_s"] = setupS * cal.scale()
	res.e2e["p50_ms"] = laneMedian(walls, executors) * cal.scale()
	res.e2e["cpu_ms_per_job"] = geomean(cpus) * cal.scale()
	res.e2e["rss_mb"] = rss.median()

	laneLayers(res.layers, walls, executors)
	res.layers["host.calibration_ms"] = cal.median()
	if o.trace {
		res.ledger = libraryLayers(o.workload, recs, res.layers)
		var overhead []float64
		res.ledger += "tracing overhead, traced over untraced median wall time:"
		for _, lane := range executors {
			r := ratio(median(tracedWalls[lane]), median(walls[lane]))
			overhead = append(overhead, r)
			res.ledger += fmt.Sprintf(" %s %.3f", lane, r)
		}
		res.ledger += "\n"
		res.layers["trace.overhead_ratio"] = geomean(overhead)
	}
	return res, nil
}

// laneMedian returns the geometric mean across lanes of each lane's median
// latency.
func laneMedian(samples map[string][]float64, lanes []string) float64 {
	var meds []float64
	for _, l := range lanes {
		meds = append(meds, median(samples[l]))
	}
	return geomean(meds)
}

// laneLayers records each lane's median and 75th-percentile latency and the
// smallest lane's sample count.
func laneLayers(m metricSet, samples map[string][]float64, lanes []string) {
	least := -1
	for _, l := range lanes {
		m["lane."+l+".p50_ms"] = median(samples[l])
		m["lane."+l+".p75_ms"] = quantile(samples[l], 0.75)
		if n := len(samples[l]); least < 0 || n < least {
			least = n
		}
	}
	m["lane.min_samples"] = float64(least)
}

// libraryLayers fills the per-layer metrics from the traced jobs and returns
// the layer ledger: per executor, the wall time of a job split into the
// pipeline's partition-build and level spans plus the residual outside them,
// and separately the CPU-summed layer times, which overlap in wall time once
// work runs in parallel.
func libraryLayers(workload string, recs []jobRecord, m metricSet) string {
	var b strings.Builder
	var residualShares []float64
	var levels, nodes, candidates, pruned, found []float64
	for _, lane := range executors {
		var n, wall, cpu, valid, part, build, lvls, rpc, exec, rpcs float64
		var allocs, allocBytes, gcs, cands, residual float64
		var rpcDurs []float64
		var sc shardCounters
		for _, r := range recs {
			if !r.traced || !r.ok || r.lane != lane {
				continue
			}
			n++
			st := r.stats
			jobCands := float64(st.OCCandidates + st.OFDCandidates)
			skipped := float64(st.OCSkippedMinimality + st.OCSkippedConstancy + st.OFDSkipped)
			wall += ms(r.wall)
			cpu += ms(r.cpu)
			valid += ms(st.ValidationTime)
			part += ms(st.PartitionTime)
			cands += jobCands
			allocs += float64(r.allocs)
			allocBytes += float64(r.allocBytes)
			gcs += float64(r.gcs)
			levels = append(levels, float64(st.LevelsProcessed))
			nodes = append(nodes, float64(st.NodesProcessed))
			candidates = append(candidates, jobCands)
			pruned = append(pruned, ratio(skipped, skipped+jobCands))
			found = append(found, ratio(float64(st.OCsFound()+st.OFDsFound()), jobCands))
			for _, s := range r.spans {
				switch s.Name {
				case "partition-build":
					build += ms(s.Duration)
				case "level":
					lvls += ms(s.Duration)
				case "rpc":
					rpc += ms(s.Duration)
					rpcs++
					rpcDurs = append(rpcDurs, ms(s.Duration))
				case "worker-exec":
					exec += ms(s.Duration)
				}
			}
			sc.tx += r.shard.tx
			sc.rx += r.shard.rx
			sc.parts += r.shard.parts
			sc.retries += r.shard.retries
			sc.redispatch += r.shard.redispatch
		}
		if n == 0 {
			continue
		}
		residual = wall - build - lvls
		residualShares = append(residualShares, ratio(residual, wall))
		m["validate.busy_ms."+lane] = valid / n
		m["validate.ns_per_candidate."+lane] = ratio(valid*1e6, cands)
		m["partition.busy_ms."+lane] = part / n
		m["partition.build_ms."+lane] = build / n
		m["core.cpu_ms."+lane] = cpu / n
		m["core.parallelism."+lane] = ratio(cpu, wall)
		m["runtime.allocs_per_job."+lane] = allocs / n
		m["runtime.alloc_mb_per_job."+lane] = allocBytes / n / (1 << 20)
		m["runtime.gc_per_job."+lane] = gcs / n
		if lane == "serial" {
			m["core.residual_ms.serial"] = (wall - valid - part) / n
		}
		if lane == "sharded" {
			m["shard.rpc_per_job"] = rpcs / n
			m["shard.rpc_p50_ms"] = median(rpcDurs)
			m["shard.wire_ms"] = (rpc - exec) / n
			m["shard.tx_kb_per_job"] = float64(sc.tx) / n / 1024
			m["shard.rx_kb_per_job"] = float64(sc.rx) / n / 1024
			m["shard.parts_kb_per_job"] = float64(sc.parts) / n / 1024
			m["shard.retries"] = float64(sc.retries)
			m["shard.redispatch"] = float64(sc.redispatch)
		}

		fmt.Fprintf(&b, "ledger %s/%s: %d traced jobs, mean ms per job\n", workload, lane, int(n))
		fmt.Fprintf(&b, "  wall               %9.2f\n", wall/n)
		ledgerLine(&b, "partition-build", build/n, wall/n)
		ledgerLine(&b, "levels", lvls/n, wall/n)
		ledgerLine(&b, "residual", residual/n, wall/n)
		fmt.Fprintf(&b, "  cpu-summed: process %.2f (parallelism %.2f), validate %.2f, partitions %.2f\n",
			cpu/n, ratio(cpu, wall), valid/n, part/n)
		if lane == "serial" {
			fmt.Fprintf(&b, "  serial levels split: validate %.2f, partitions %.2f, planning and merge %.2f\n",
				valid/n, (part-build)/n, (lvls-valid-(part-build))/n)
		}
		if rpcs > 0 {
			fmt.Fprintf(&b, "  shard: %.1f rpcs, rpc %.2f = worker-exec %.2f + wire %.2f\n",
				rpcs/n, rpc/n, exec/n, (rpc-exec)/n)
		}
	}
	m["core.levels"] = mean(levels)
	m["core.nodes"] = mean(nodes)
	m["core.candidates"] = mean(candidates)
	m["core.pruned_share"] = mean(pruned)
	m["validate.yield"] = mean(found)
	m["ledger.residual_share"] = mean(residualShares)
	return b.String()
}

func ledgerLine(b *strings.Builder, name string, v, wall float64) {
	fmt.Fprintf(b, "  %-18s %9.2f %6.1f%%\n", name, v, 100*ratio(v, wall))
}
