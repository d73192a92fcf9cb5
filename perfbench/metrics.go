package main

import "fmt"

// metricSpec names one printed metric and its unit. BENCHMARK.json at the
// repository root lists the same names and units; a test keeps them equal.
type metricSpec struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run, printed on every workload.
// p50_ms aggregates the workload's lanes (executors for the library
// workloads, request classes for the service workloads) as the geometric
// mean of the per-lane medians, so every lane weighs the same whatever its
// absolute speed. Timings are scaled by the run's calibration (see
// calibrator). Tail percentiles are per-layer metrics: on shared cores the
// service tail moves between runs by more than any allowed bound.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"cpu_ms_per_job", "ms"},
	{"rss_mb", "MB"},
}

var (
	// executors are the library workloads' lanes.
	executors = []string{"serial", "pool", "sharded"}
	// classes are the service request classes. All but large are the
	// service workloads' lanes: at 10 requests/s a 25-second window holds
	// too few large requests for a 75th percentile with ten samples beyond
	// it.
	classes      = []string{"cachehit", "small", "fresh", "large"}
	serviceLanes = classes[:3]
	jobStages    = []string{"queue_wait", "cache_lookup", "dataset_load", "prepare", "discover"}
)

// perLayer are the metrics of a traced run, printed on every workload. A
// layer the workload does not exercise reads 0 (no sharded RPCs run on the
// service workloads, no HTTP requests on the library workloads).
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	var out []metricSpec
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricSpec{n, unit})
		}
	}
	perExec := func(unit, prefix string) {
		for _, e := range executors {
			add(unit, prefix+"."+e)
		}
	}
	for _, l := range append(append([]string(nil), executors...), classes...) {
		add("ms", "lane."+l+".p50_ms", "lane."+l+".p75_ms")
	}
	add("count", "lane.min_samples")
	add("ms", "host.calibration_ms")
	add("ratio", "host.steal_share")
	add("ratio", "trace.overhead_ratio", "ledger.residual_share")

	perExec("ms", "validate.busy_ms")
	perExec("ns", "validate.ns_per_candidate")
	add("ratio", "validate.yield")

	perExec("ms", "partition.busy_ms")
	perExec("ms", "partition.build_ms")

	add("ms", "core.residual_ms.serial")
	perExec("ms", "core.cpu_ms")
	perExec("ratio", "core.parallelism")
	add("count", "core.levels", "core.nodes", "core.candidates")
	add("ratio", "core.pruned_share")

	add("count", "shard.rpc_per_job")
	add("ms", "shard.rpc_p50_ms", "shard.wire_ms")
	add("KB", "shard.tx_kb_per_job", "shard.rx_kb_per_job", "shard.parts_kb_per_job")
	add("count", "shard.retries", "shard.redispatch")

	perExec("count", "runtime.allocs_per_job")
	perExec("MB", "runtime.alloc_mb_per_job")
	perExec("count", "runtime.gc_per_job")

	add("ms", "service.queue_wait_p50_ms", "service.queue_wait_p90_ms")
	add("ratio", "service.utilization", "service.cache_hit_ratio", "service.partition_cache_hit_ratio")
	perExec("count", "service.routed")
	add("ms", "service.submit_rtt_p50_ms")
	for _, st := range jobStages {
		for _, c := range classes {
			add("ms", fmt.Sprintf("service.span.%s_ms.%s", st, c))
		}
	}

	add("ms", "dataset.upload_p50_ms", "dataset.upload_p90_ms")
	add("count", "store.writes_per_commit", "store.persist_errors")
	add("ms", "load.late_p99_ms")
	add("count", "load.inflight_max")
	return out
}

// metricSet collects one run's values by name.
type metricSet map[string]float64

// zeroLayers returns a metric set holding every per-layer metric at 0, to be
// overwritten by the layers the workload exercises.
func zeroLayers() metricSet {
	m := make(metricSet, len(perLayer))
	for _, s := range perLayer {
		m[s.name] = 0
	}
	return m
}

// jsonMetric is one metric as printed.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render attaches units to the values of specs, failing if any spec has no
// value or a value has no spec.
func render(specs []metricSpec, vals metricSet) (map[string]jsonMetric, error) {
	out := make(map[string]jsonMetric, len(specs))
	for _, s := range specs {
		v, ok := vals[s.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.name)
		}
		out[s.name] = jsonMetric{Value: v, Unit: s.unit}
	}
	if len(vals) != len(specs) {
		for name := range vals {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s is not declared", name)
			}
		}
	}
	return out, nil
}
