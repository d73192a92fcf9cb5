package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"aod/internal/core"
)

// runOptions are one run's settings.
type runOptions struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	// startServer starts a fresh aodserver persisting under dir (service
	// workloads only).
	startServer func(ctx context.Context, dir string) (server, error)
	workDir     string
	log         io.Writer
}

// runResult is what one run measured.
type runResult struct {
	attempted, failed int
	e2e, layers       metricSet
	ledger            string
}

// workload is one named benchmark input set.
type workload interface {
	run(ctx context.Context, o runOptions) (*runResult, error)
}

// workloads are the benchmark's inputs; the package documentation gives the
// reason for each.
var workloads = map[string]workload{
	"aod-optimal": libraryWorkload{
		rows: 10000, cols: 10,
		cfg: core.Config{Threshold: 0.10, Validator: core.ValidatorOptimal, IncludeOFDs: true},
	},
	"od-exact-deep": libraryWorkload{
		rows: 7000, cols: 14,
		cfg: core.Config{Validator: core.ValidatorExact, IncludeOFDs: true},
	},
	"service-light": defaultService(10),
	"service-heavy": defaultService(25),
}

var selfPID = os.Getpid()

// setupReps is how many times a run sets its workload up from scratch;
// setup_s is the median, and the last set-up is the one measured.
const setupReps = 3

// timedSetups runs setup setupReps times, discarding all but the last
// result, and returns it with the median set-up time in seconds. Discarding
// is not timed.
func timedSetups[T any](setup func() (T, error), discard func(T)) (T, float64, error) {
	var env T
	var secs []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			discard(env)
		}
		t0 := time.Now()
		e, err := setup()
		if err != nil {
			var zero T
			return zero, 0, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		env = e
	}
	return env, median(secs), nil
}

// output is the last line the benchmark prints.
type output struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 42, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 25, "length of the timed window in seconds")
	traceFlag := fs.Int("trace", 0, "1 prints the per-layer metrics and the layer ledger instead of the end-to-end metrics")
	serverBin := fs.String("server-bin", "", "aodserver binary the service workloads start")
	workDir := fs.String("work-dir", ".bench_build/run", "directory for server data directories")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	o := runOptions{
		workload: *name,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *traceFlag == 1,
		workDir:  *workDir,
		log:      stderr,
		startServer: func(ctx context.Context, dir string) (server, error) {
			s, err := startProcServer(ctx, *serverBin, dir)
			if err != nil {
				return nil, err
			}
			return s, nil
		},
	}
	return execute(ctx, w, o, stdout, stderr)
}

// execute runs one workload, prints its result and returns the exit status.
func execute(ctx context.Context, w workload, o runOptions, stdout, stderr io.Writer) int {
	res, err := w.run(ctx, o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	specs, vals := endToEnd, res.e2e
	if o.trace {
		specs, vals = perLayer, res.layers
	}
	metrics, err := render(specs, vals)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	host, _ := json.Marshal(currentHost())
	fmt.Fprintf(stdout, "host %s\n", host)
	if o.trace {
		fmt.Fprint(stdout, res.ledger)
	}
	out := output{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: metrics}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !out.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
