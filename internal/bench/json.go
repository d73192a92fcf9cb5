package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"aod/internal/core"
	"aod/internal/gen"
	"aod/internal/partition"
	"aod/internal/shard"
	"aod/internal/telemetry"
	"aod/internal/validate"
)

// JSONSchema identifies the machine-readable benchmark format. BENCH_<n>.json
// files committed at the repo root form the perf trajectory across PRs: each
// file is one snapshot of the named workloads below, produced by
// `aodbench -json BENCH_<n>.json`.
const JSONSchema = "aod-bench/v1"

// JSONResult is one measured workload.
type JSONResult struct {
	// Name identifies the workload; names are stable across snapshots so
	// trajectories can be joined on them.
	Name string `json:"name"`
	// Iterations is the b.N the testing harness settled on.
	Iterations int `json:"iterations"`
	// NsPerOp, BytesPerOp and AllocsPerOp are the usual benchmark readings.
	NsPerOp     float64 `json:"nsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp"`
	AllocsPerOp int64   `json:"allocsPerOp"`
	// Runs, P50NsPerOp and P99NsPerOp appear only in -percentiles snapshots:
	// the workload is measured Runs times and the ns/op quantiles are taken
	// across those runs (NsPerOp is then the median, keeping -baseline
	// comparisons meaningful against single-run snapshots).
	Runs       int     `json:"runs,omitempty"`
	P50NsPerOp float64 `json:"p50NsPerOp,omitempty"`
	P99NsPerOp float64 `json:"p99NsPerOp,omitempty"`
	// The remaining fields appear only in service-load snapshots (aodload):
	// there a "workload" is one traffic class against a live server, the
	// quantiles are per-request latencies rather than run-to-run spread, and
	// the counters partition how the offered requests fared.
	P999NsPerOp float64 `json:"p999NsPerOp,omitempty"`
	// Count is the number of requests that completed successfully.
	Count uint64 `json:"count,omitempty"`
	// Errors counts failed jobs plus client-side protocol errors.
	Errors uint64 `json:"errors,omitempty"`
	// Shed counts requests the server rejected with backpressure (503).
	Shed uint64 `json:"shed,omitempty"`
	// Retried and FailedOver count router-absorbed recovery work (routed
	// runs only): extra submit attempts and mid-stream replica failovers.
	Retried    uint64 `json:"retried,omitempty"`
	FailedOver uint64 `json:"failedOver,omitempty"`
	// RatePerSec is completed requests per second of offered-traffic window.
	RatePerSec float64 `json:"ratePerSec,omitempty"`
}

// JSONReport is the file-level envelope.
type JSONReport struct {
	Schema      string       `json:"schema"`
	GeneratedAt time.Time    `json:"generatedAt"`
	GoOS        string       `json:"goos"`
	GoArch      string       `json:"goarch"`
	Seed        int64        `json:"seed"`
	Results     []JSONResult `json:"results"`
}

// jsonWorkloads builds the named workload list. Shapes are fixed (not
// Scale-dependent) so that BENCH_<n>.json files remain comparable across
// snapshots taken with different flags.
func jsonWorkloads(seed int64) []struct {
	name string
	fn   func(b *testing.B)
} {
	ncv10k := genTable("ncvoter", 10_000, 4, seed)
	ncv100k := genTable("ncvoter", 100_000, 4, seed)
	pair100k := gen.CorrelatedPair(100_000, 0.10, seed)
	flight2k := genTable("flight", 2_000, 10, seed)
	ncv5k := genTable("ncvoter", 5_000, 10, seed)
	ncv50k := genTable("ncvoter", 50_000, 10, seed)
	// The loopback clusters outlive the benchmark's calibration calls: a real
	// shard pool is a long-lived deployment, so the sharded trajectories
	// measure steady state (dataset fingerprint-cached on the workers), not a
	// cold ship on every testing.Benchmark ramp-up round.
	lb5 := shard.Loopback(4)
	lb50 := shard.Loopback(4)

	return []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"partition-product/n=10000", func(b *testing.B) {
			p0, p1 := partition.Single(ncv10k.Column(3)), partition.Single(ncv10k.Column(1))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p0.Product(p1)
			}
		}},
		{"partition-product/n=100000", func(b *testing.B) {
			p0, p1 := partition.Single(ncv100k.Column(3)), partition.Single(ncv100k.Column(1))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p0.Product(p1)
			}
		}},
		{"partition-product-into/n=100000", func(b *testing.B) {
			p0, p1 := partition.Single(ncv100k.Column(3)), partition.Single(ncv100k.Column(1))
			var s partition.ProductScratch
			out := &partition.Stripped{}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p0.ProductInto(p1, &s, out)
			}
		}},
		{"validate-aoc-optimal/n=100000", func(b *testing.B) {
			ctx := partition.Universe(100_000)
			v := validate.New()
			ca, cb := pair100k.Column(0), pair100k.Column(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v.OptimalAOC(ctx, ca, cb, validate.Options{Threshold: 0.15})
			}
		}},
		{"validate-oc-exact/n=100000", func(b *testing.B) {
			ctx := partition.Universe(100_000)
			v := validate.New()
			ca, cb := pair100k.Column(0), pair100k.Column(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v.ExactOC(ctx, ca, cb)
			}
		}},
		{"validate-approx-ofd/n=100000", func(b *testing.B) {
			ctx := partition.Single(ncv100k.Column(3))
			col := ncv100k.Column(1)
			v := validate.New()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v.ApproxOFD(ctx, col, validate.Options{Threshold: 0.1})
			}
		}},
		{"discover-flight/n=2000,attrs=10", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Discover(flight2k, core.Config{Threshold: 0.10, Validator: core.ValidatorOptimal}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"discover-ncvoter/n=5000,attrs=10", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Discover(ncv5k, core.Config{Threshold: 0.10, Validator: core.ValidatorOptimal}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"discover-traced/n=5000,attrs=10", func(b *testing.B) {
			// Same workload as discover-ncvoter but with an active trace on
			// the context, so every run records partition-build and per-level
			// spans. The gap between this trajectory and discover-ncvoter's IS
			// the telemetry overhead — the CI gate holds it within the normal
			// regression tolerance.
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr := telemetry.NewTrace("bench")
				root := tr.Start(0, "discover")
				ctx := telemetry.NewContext(context.Background(), tr, root.ID())
				if _, err := (core.Pipeline{}).Run(ctx, ncv5k, core.Config{Threshold: 0.10, Validator: core.ValidatorOptimal}); err != nil {
					b.Fatal(err)
				}
				root.End()
			}
		}},
		{"discover-pool/n=5000,attrs=10", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := (core.Pipeline{Executor: core.Pool(4)}).Run(context.Background(), ncv5k, core.Config{Threshold: 0.10, Validator: core.ValidatorOptimal}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"discover-sharded-loopback/n=5000,attrs=10", func(b *testing.B) {
			// The distributed path over in-process workers: full wire
			// protocol (handshake, binary columnar dataset, flat task/result
			// records, per-level slice dispatch) without network latency —
			// the protocol-overhead trajectory vs discover-pool. The cluster
			// persists across iterations like a real pool, so the dataset
			// ships and cold-partitions once. ShardedQuantum is the executor
			// the service routes through: at this size the width policy
			// engages one worker, so the trajectory is the pure protocol tax
			// without per-worker partition duplication. One untimed warm-up run
			// absorbs the cold dataset ship so every measured iteration is
			// steady state.
			cluster := lb5
			if _, err := (core.Pipeline{Executor: core.ShardedQuantum(cluster, 0)}).Run(context.Background(), ncv5k, core.Config{Threshold: 0.10, Validator: core.ValidatorOptimal}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.Pipeline{Executor: core.ShardedQuantum(cluster, 0)}.Run(context.Background(), ncv5k, core.Config{Threshold: 0.10, Validator: core.ValidatorOptimal})
				if err != nil {
					b.Fatal(err)
				}
				if res.Stats.OCsFound() == 0 {
					b.Fatal("sharded discovery found nothing")
				}
			}
		}},
		{"discover-pool/n=50000,attrs=10", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := (core.Pipeline{Executor: core.Pool(4)}).Run(context.Background(), ncv50k, core.Config{Threshold: 0.10, Validator: core.ValidatorOptimal}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"discover-sharded-loopback/n=50000,attrs=10", func(b *testing.B) {
			// The crossover workload: at 50k rows the wire overhead is noise
			// next to validation work, and the persistent session's fingerprint
			// dataset cache skips re-shipping and re-preparing the table each
			// run — so the sharded executor beats the in-process pool
			// outright, not just staying within tolerance of it. The 50k op
			// exceeds benchtime, so testing.Benchmark settles on N=1; the
			// untimed warm-up run keeps that single measured op out of the
			// cold ship + single-partition build.
			cluster := lb50
			if _, err := (core.Pipeline{Executor: core.ShardedQuantum(cluster, 0)}).Run(context.Background(), ncv50k, core.Config{Threshold: 0.10, Validator: core.ValidatorOptimal}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.Pipeline{Executor: core.ShardedQuantum(cluster, 0)}.Run(context.Background(), ncv50k, core.Config{Threshold: 0.10, Validator: core.ValidatorOptimal})
				if err != nil {
					b.Fatal(err)
				}
				if res.Stats.OCsFound() == 0 {
					b.Fatal("sharded discovery found nothing")
				}
			}
		}},
		{"discover-repeat/cold/n=100000,attrs=4", func(b *testing.B) {
			// The repeat-job trajectory, cold half: every iteration pays the
			// full cold start — single-column partition build (Prepare) plus
			// discovery — exactly what a server without the partition cache
			// does for every job over the same dataset. The wide-and-shallow
			// shape (100k rows, 4 attrs) makes the prepare cost a substantial
			// fraction of the job, as it is for the paper's row-heavy inputs.
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				prep := core.Prepare(ncv100k)
				if _, err := (core.Pipeline{Prepared: prep}).Run(context.Background(), ncv100k, core.Config{Threshold: 0.10, Validator: core.ValidatorOptimal}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"discover-repeat/warm/n=100000,attrs=4", func(b *testing.B) {
			// Warm half: the singles are prepared once and every iteration
			// reuses them through the Pipeline.Prepared seam plus a shared
			// bounded arena — the exact server path a partition-cache hit
			// takes (-partition-cache-bytes). The gap between this trajectory
			// and discover-repeat/cold IS the cross-job memoization win.
			prep := core.Prepare(ncv100k)
			arena := partition.NewArenaLimit(256 << 20)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := (core.Pipeline{Prepared: prep, Arena: arena}).Run(context.Background(), ncv100k, core.Config{Threshold: 0.10, Validator: core.ValidatorOptimal}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"discover-exact-sortedscan/n=5000,attrs=10", func(b *testing.B) {
			// Exact discovery picks the sorted-scan or the class-sort route
			// per context; the name predates that and is kept so snapshots
			// compare across commits.
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Discover(ncv5k, core.Config{Validator: core.ValidatorExact}); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
}

// RunJSON measures the named workloads and writes a JSONReport to w. Results
// also stream to log as they complete.
func RunJSON(w io.Writer, log io.Writer, seed int64) error {
	return RunJSONPercentiles(w, log, seed, 1)
}

// RunJSONPercentiles is RunJSON with each workload measured runs times: the
// recorded NsPerOp is the median across runs (noise-resistant, and still
// comparable against single-run snapshots under -baseline), and P50NsPerOp /
// P99NsPerOp capture the run-to-run latency spread. runs ≤ 1 degenerates to
// the plain single-measurement snapshot.
//
// Each run regenerates the workload datasets from its own seed — run 0 uses
// the base seed (so -percentiles and single-run snapshots share inputs) and
// later runs draw seeds from one RNG derived from it. The spread therefore
// reflects input variation as well as machine noise, rather than re-timing
// one frozen dataset N times.
func RunJSONPercentiles(w io.Writer, log io.Writer, seed int64, runs int) error {
	if runs < 1 {
		runs = 1
	}
	rep := JSONReport{
		Schema:      JSONSchema,
		GeneratedAt: time.Now().UTC().Truncate(time.Second),
		GoOS:        runtime.GOOS,
		GoArch:      runtime.GOARCH,
		Seed:        seed,
	}
	seedRng := rand.New(rand.NewSource(seed))
	type acc struct {
		samples []float64
		jr      JSONResult
	}
	var accs []acc
	for run := 0; run < runs; run++ {
		runSeed := seed
		if run > 0 {
			runSeed = seedRng.Int63()
		}
		wls := jsonWorkloads(runSeed)
		if accs == nil {
			accs = make([]acc, len(wls))
		}
		for i, wl := range wls {
			r := testing.Benchmark(wl.fn)
			if r.N == 0 {
				// A failed workload (b.Fatal) yields a zero BenchmarkResult;
				// recording it would poison the trajectory with fake zeros.
				return fmt.Errorf("bench: workload %q failed", wl.name)
			}
			nsPerOp := float64(r.T.Nanoseconds()) / float64(r.N)
			accs[i].samples = append(accs[i].samples, nsPerOp)
			if run == 0 {
				accs[i].jr = JSONResult{
					Name:        wl.name,
					Iterations:  r.N,
					NsPerOp:     nsPerOp,
					BytesPerOp:  r.AllocedBytesPerOp(),
					AllocsPerOp: r.AllocsPerOp(),
				}
			}
		}
	}
	for i := range accs {
		jr := accs[i].jr
		if runs > 1 {
			jr.Runs = runs
			jr.P50NsPerOp = telemetry.ExactQuantile(accs[i].samples, 0.50)
			jr.P99NsPerOp = telemetry.ExactQuantile(accs[i].samples, 0.99)
			jr.NsPerOp = jr.P50NsPerOp
		}
		rep.Results = append(rep.Results, jr)
		if log != nil {
			writeJSONLine(log, jr)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// EncodeReport writes a report as indented JSON — the same formatting every
// BENCH_<n>.json snapshot uses, so diffs stay minimal.
func EncodeReport(w io.Writer, rep JSONReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// DecodeReport parses an aod-bench/v1 report from r, rejecting other
// schemas. It is the reader half of EncodeReport and what LoadJSON uses
// under the hood.
func DecodeReport(r io.Reader) (JSONReport, error) {
	var rep JSONReport
	dec := json.NewDecoder(r)
	if err := dec.Decode(&rep); err != nil {
		return rep, fmt.Errorf("bench: decode report: %w", err)
	}
	if rep.Schema != JSONSchema {
		return rep, fmt.Errorf("bench: unsupported schema %q (want %q)", rep.Schema, JSONSchema)
	}
	return rep, nil
}

func writeJSONLine(log io.Writer, r JSONResult) {
	if r.Runs > 1 {
		fmt.Fprintf(log, "  %s: p50 %s/op, p99 %s/op over %d runs, %d allocs/op\n",
			r.Name, fmtDur(time.Duration(r.P50NsPerOp)), fmtDur(time.Duration(r.P99NsPerOp)),
			r.Runs, r.AllocsPerOp)
		return
	}
	fmt.Fprintf(log, "  %s: %s/op, %d allocs/op\n",
		r.Name, fmtDur(time.Duration(r.NsPerOp)), r.AllocsPerOp)
}
