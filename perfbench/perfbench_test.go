package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"aod"
	"aod/internal/core"
	"aod/internal/dataset"
	"aod/internal/gen"
	"aod/internal/service"
	"aod/internal/store"
)

// benchmarkJSON is the part of BENCHMARK.json the tests compare against.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames())
	}
	check := func(kind string, specs []metricSpec, declared []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(declared) != len(specs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, benchmark prints %d", kind, len(declared), len(specs))
		}
		for i := range min(len(declared), len(specs)) {
			if declared[i].Name != specs[i].name || declared[i].Unit != specs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i,
					declared[i].Name, declared[i].Unit, specs[i].name, specs[i].unit)
			}
		}
	}
	check("end_to_end", endToEnd, bj.EndToEnd)
	check("per_layer", perLayer, bj.PerLayer)
}

func TestQuantileAndGeomean(t *testing.T) {
	s := []float64{4, 1, 3, 2}
	if got := quantile(s, 0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(s, 0.75); got != 3.25 {
		t.Errorf("p75 = %v, want 3.25", got)
	}
	if s[0] != 4 {
		t.Error("quantile reordered its input")
	}
	if got := geomean([]float64{2, 8}); got < 3.9999 || got > 4.0001 {
		t.Errorf("geomean = %v, want 4", got)
	}
	if got := geomean([]float64{2, 0}); got != 0 {
		t.Errorf("geomean with a zero = %v, want 0", got)
	}
}

func TestParseCPUTimes(t *testing.T) {
	got, err := parseCPUTimes("cpu  1485041 0 64771 2014322 7161 0 20797 14550 3 4")
	if err != nil {
		t.Fatal(err)
	}
	if want := (cpuTimes{total: 3606642, steal: 14550}); got != want {
		t.Errorf("parsed %+v, want %+v", got, want)
	}
	for _, bad := range []string{"", "cpu0 1 2 3 4 5 6 7 8", "cpu 1 2 3", "cpu 1 2 3 4 5 6 x 8"} {
		if _, err := parseCPUTimes(bad); err == nil {
			t.Errorf("parsed %q without error", bad)
		}
	}
}

func testPlanConfig() planConfig {
	return planConfig{rate: 200, window: 5 * time.Second, mix: []float64{35, 30, 25, 10}, zipf: 0.99, nSmall: 8, nLarge: 2}
}

func TestBuildPlanFixesCountsAndVariesTiming(t *testing.T) {
	cfg := testPlanConfig()
	a, err := buildPlan(7, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := buildPlan(7, cfg)
	c, _ := buildPlan(8, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed planned different traffic")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds planned identical traffic")
	}
	if len(a) != 1000 || len(c) != 1000 {
		t.Fatalf("planned %d and %d requests, want 1000", len(a), len(c))
	}
	counts := map[string]int{}
	fresh := 0
	var larges []time.Duration
	for i, r := range a {
		if r.seq != i || (i > 0 && r.at < a[i-1].at) || r.at < 0 || r.at >= cfg.window {
			t.Fatalf("request %d: seq %d at %v out of order", i, r.seq, r.at)
		}
		counts[r.class]++
		switch r.class {
		case "fresh":
			if r.dataset != fresh {
				t.Fatalf("fresh request %d uses body %d, want %d", i, r.dataset, fresh)
			}
			fresh++
		case "large":
			larges = append(larges, r.at)
			if r.dataset < 0 || r.dataset >= cfg.nLarge {
				t.Fatalf("large request %d picks dataset %d", i, r.dataset)
			}
		default:
			if r.dataset < 0 || r.dataset >= cfg.nSmall {
				t.Fatalf("request %d picks dataset %d", i, r.dataset)
			}
		}
	}
	want := map[string]int{"cachehit": 350, "small": 300, "fresh": 250, "large": 100}
	if !reflect.DeepEqual(counts, want) {
		t.Errorf("class counts %v, want %v", counts, want)
	}
	if countClass(a, "fresh") != fresh {
		t.Errorf("countClass(fresh) = %d, want %d", countClass(a, "fresh"), fresh)
	}
	for i := 1; i < len(larges); i++ {
		if gap := larges[i] - larges[i-1]; gap < 49*time.Millisecond || gap > 51*time.Millisecond {
			t.Fatalf("large requests %d and %d are %v apart, want 50ms", i-1, i, gap)
		}
	}
}

func TestApportion(t *testing.T) {
	for _, tc := range []struct {
		n       int
		weights []float64
		want    []int
	}{
		{10, []float64{35, 30, 25, 10}, []int{4, 3, 2, 1}},
		{7, []float64{1, 1, 1}, []int{3, 2, 2}},
		{0, []float64{1, 2}, []int{0, 0}},
	} {
		if got := apportion(tc.n, tc.weights); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("apportion(%d, %v) = %v, want %v", tc.n, tc.weights, got, tc.want)
		}
	}
}

// lateClock is a fake clock whose every sleep overshoots by lag, the way a
// starved generator wakes late.
type lateClock struct {
	mu  sync.Mutex
	now time.Time
	lag time.Duration
}

func (c *lateClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *lateClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t.Add(c.lag)
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	start := time.Unix(1000, 0)
	clock := &lateClock{now: start, lag: 3 * time.Millisecond}
	plan := []request{{seq: 0, at: 10 * time.Millisecond}, {seq: 1, at: 20 * time.Millisecond}, {seq: 2, at: 21 * time.Millisecond}}
	var mu sync.Mutex
	dues := map[int]time.Time{}
	lates := map[int]time.Duration{}
	n, _ := openLoop(context.Background(), clock, plan, func(r request, due time.Time, late time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		dues[r.seq], lates[r.seq] = due, late
	})
	if n != len(plan) {
		t.Fatalf("dispatched %d of %d", n, len(plan))
	}
	for _, r := range plan {
		// Due times stay on the schedule however late the generator runs.
		if want := start.Add(r.at); !dues[r.seq].Equal(want) {
			t.Errorf("request %d due %v, want %v", r.seq, dues[r.seq], want)
		}
	}
	// The first two sleeps overshoot by the lag; the third request was
	// already overdue when the second sleep returned.
	if lates[0] != 3*time.Millisecond || lates[1] != 3*time.Millisecond || lates[2] != 2*time.Millisecond {
		t.Errorf("lateness %v, want [3ms 3ms 2ms]", lates)
	}
}

func TestVariantsKeepDependencies(t *testing.T) {
	base := gen.Flight(gen.FlightConfig{Rows: 500, Attrs: 8, Seed: 3})
	cfg := core.Config{Threshold: 0.1, Validator: core.ValidatorOptimal, IncludeOFDs: true}
	want, err := core.Discover(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.OCs) == 0 || len(want.OFDs) == 0 {
		t.Fatalf("test table has %d OCs and %d OFDs; want some of each", len(want.OCs), len(want.OFDs))
	}
	for _, k := range []int{1, seedVariant(-7), seedVariant(1<<40 + 3)} {
		v, err := variant(base, k)
		if err != nil {
			t.Fatal(err)
		}
		if dataset.Fingerprint(v) == dataset.Fingerprint(base) {
			t.Errorf("variant %d has the base table's fingerprint", k)
		}
		got, err := core.Discover(v, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if digestResult(got) != digestResult(want) {
			t.Errorf("variant %d changed the discovered dependencies", k)
		}
	}
}

// tinyService is a service workload small enough for a unit test.
func tinyService(rate float64) serviceWorkload {
	w := defaultService(rate)
	w.smallRows, w.smallCols, w.nSmall = 300, 5, 3
	w.largeRows, w.largeCols, w.nLarge = 1500, 8, 1
	w.drain = 10 * time.Second
	return w
}

func TestVerifyCountsWrongReports(t *testing.T) {
	w := tinyService(10)
	in, err := w.inputs(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	good := func(body []byte, class string) *aod.Report {
		ds, err := aod.ReadCSV(bytes.NewReader(body), aod.CSVOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := aod.Discover(ds, w.options(class))
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.OCs)+len(rep.OFDs) == 0 {
			t.Fatal("test dataset has no dependencies to corrupt")
		}
		return rep
	}
	outs := []outcome{
		{r: request{class: "cachehit", dataset: 0}, state: "done", report: good(in.small[0], "cachehit")},
		{r: request{class: "small", dataset: 1}, state: "done", report: good(in.small[1], "small")},
		{r: request{class: "fresh", dataset: 0}, state: "done", report: good(in.fresh[0], "fresh")},
		{r: request{class: "large", dataset: 0}, state: "done", report: good(in.large[0], "large")},
	}
	if failed, err := w.verify(in, outs); err != nil || failed != 0 {
		t.Fatalf("correct reports: failed %d, err %v", failed, err)
	}

	corrupt := good(in.small[1], "small")
	if len(corrupt.OCs) > 0 {
		corrupt.OCs[0].Removals++
	} else {
		corrupt.OFDs = corrupt.OFDs[1:]
	}
	outs[1].report = corrupt
	outs = append(outs, outcome{r: request{class: "small"}, shed: true})
	failed, err := w.verify(in, outs)
	if err != nil {
		t.Fatal(err)
	}
	if failed != 2 {
		t.Errorf("a corrupted report and a shed request counted as %d failures, want 2", failed)
	}
	if outs[1].err == nil {
		t.Error("the corrupted report carries no error")
	}
}

// inProcServer is an aodserver service on an httptest listener, standing in
// for the process in tests.
type inProcServer struct {
	ts  *httptest.Server
	svc *service.Service
}

func startInProcServer(_ context.Context, dir string) (server, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	svc := service.New(service.Config{Store: st})
	return &inProcServer{ts: httptest.NewServer(service.NewHandler(svc, service.HandlerConfig{})), svc: svc}, nil
}

func (s *inProcServer) url() string { return s.ts.URL }
func (s *inProcServer) pid() int    { return selfPID }
func (s *inProcServer) stop()       { s.ts.Close(); s.svc.Close() }

// TestEveryWorkloadPrintsEveryMetric runs every workload at a tiny scale —
// two library rounds, a two-second service window against an in-process
// server — untraced and traced, and checks that each prints every declared
// metric with its unit and a correct result.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	units := func(list []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) map[string]string {
		m := map[string]string{}
		for _, s := range list {
			m[s.Name] = s.Unit
		}
		return m
	}
	want := map[bool]map[string]string{false: units(bj.EndToEnd), true: units(bj.PerLayer)}
	tiny := map[string]workload{
		"aod-optimal": libraryWorkload{rows: 1000, cols: 6,
			cfg: core.Config{Threshold: 0.10, Validator: core.ValidatorOptimal, IncludeOFDs: true}},
		"od-exact-deep": libraryWorkload{rows: 1000, cols: 8,
			cfg: core.Config{Validator: core.ValidatorExact, IncludeOFDs: true}},
		"service-light": tinyService(15),
		"service-heavy": tinyService(30),
	}
	if len(tiny) != len(workloads) {
		t.Fatalf("%d tiny workloads for %d workloads", len(tiny), len(workloads))
	}
	for name, w := range tiny {
		for _, traced := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				t.Parallel()
				window := 2 * time.Second
				if _, lib := w.(libraryWorkload); lib {
					window = 0 // minRounds rounds
				}
				var stdout, stderr bytes.Buffer
				o := runOptions{
					workload: name, seed: 5, window: window, trace: traced,
					startServer: startInProcServer, workDir: t.TempDir(), log: &stderr,
				}
				if code := execute(context.Background(), w, o, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				if !strings.HasPrefix(lines[0], "host {") {
					t.Errorf("first line %q is not the host block", lines[0])
				}
				var out output
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
					t.Errorf("result correct=%v attempted=%d failed=%d", out.Correct, out.Attempted, out.Failed)
				}
				if len(out.Metrics) != len(want[traced]) {
					t.Errorf("printed %d metrics, want %d", len(out.Metrics), len(want[traced]))
				}
				for n, unit := range want[traced] {
					if got, ok := out.Metrics[n]; !ok || got.Unit != unit {
						t.Errorf("metric %s: printed %+v, want unit %s", n, got, unit)
					}
				}
				if traced && !strings.Contains(stdout.String(), "ledger "+name+"/") {
					t.Error("traced run printed no ledger")
				}
			})
		}
	}
}
