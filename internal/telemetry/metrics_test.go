package telemetry

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{1, 0},
		{1024, 0}, // exactly 2^10 → first bucket (le bound inclusive)
		{1025, 1}, // just past → next bucket
		{2048, 1}, // 2^11
		{2049, 2}, // past 2^11
		{time.Duration(1) << 40, histBuckets - 1}, // last finite bound
		{time.Duration(1)<<40 + 1, histBuckets},   // overflow
		{time.Hour, histBuckets},                  // way past → overflow
		{-5, 0},                                   // clamped
	}
	for _, c := range cases {
		if got := bucketIndex(c.d); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.d, got, c.want)
		}
	}
	// Every observation must land in the bucket whose bound first covers it.
	for pow := histMinPow; pow < histMaxPow; pow++ {
		d := time.Duration(1) << pow
		i := bucketIndex(d)
		if bucketBound(i) < int64(d) {
			t.Errorf("observation %d exceeds its bucket bound %d", d, bucketBound(i))
		}
		if i > 0 && bucketBound(i-1) >= int64(d) {
			t.Errorf("observation %d fits the previous bucket bound %d", d, bucketBound(i-1))
		}
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	var h Histogram
	// 100 observations all inside the (1024, 2048] bucket, uniformly spread.
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(1024 + 10*(i+1)))
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	// p50 interpolates to the middle of the bucket.
	p50 := s.Quantile(0.5)
	if p50 < 1400 || p50 > 1700 {
		t.Errorf("p50 = %v, want ≈1536 (mid-bucket)", p50)
	}
	// p99 lands near the top of the bucket.
	p99 := s.Quantile(0.99)
	if p99 < 1900 || p99 > 2048 {
		t.Errorf("p99 = %v, want near 2048", p99)
	}
	// Quantiles are monotone in q.
	prev := time.Duration(0)
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999} {
		v := s.Quantile(q)
		if v < prev {
			t.Errorf("quantile not monotone: q=%g gave %v after %v", q, v, prev)
		}
		prev = v
	}
}

func TestHistogramQuantileSpread(t *testing.T) {
	var h Histogram
	// Half the observations ~2µs, half ~1ms: p50 must sit in the low mode,
	// p99 in the high mode — within a factor of 2 (bucket resolution).
	for i := 0; i < 500; i++ {
		h.Observe(2 * time.Microsecond)
		h.Observe(time.Millisecond)
	}
	s := h.Snapshot()
	if p50 := s.Quantile(0.50); p50 > 10*time.Microsecond {
		t.Errorf("p50 = %v, want ≤ 10µs", p50)
	}
	if p99 := s.Quantile(0.99); p99 < 500*time.Microsecond || p99 > 2*time.Millisecond {
		t.Errorf("p99 = %v, want ≈1ms", p99)
	}
}

func TestHistogramEmptyAndOverflow(t *testing.T) {
	var h Histogram
	if q := h.Snapshot().Quantile(0.5); q != 0 {
		t.Errorf("empty histogram p50 = %v, want 0", q)
	}
	h.Observe(48 * time.Hour) // deep overflow
	s := h.Snapshot()
	if s.Buckets[histBuckets] != 1 {
		t.Fatalf("overflow bucket = %d, want 1", s.Buckets[histBuckets])
	}
	if q := s.Quantile(0.99); q != time.Duration(bucketBound(histBuckets-1)) {
		t.Errorf("overflow quantile = %v, want last finite bound", q)
	}
}

func TestHistogramConcurrentWriters(t *testing.T) {
	var h Histogram
	const writers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(rng.Int63n(int64(time.Second))))
			}
		}(int64(w))
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != writers*per {
		t.Fatalf("count = %d, want %d (lost observations)", s.Count, writers*per)
	}
	var fromBuckets uint64
	for _, n := range s.Buckets {
		fromBuckets += n
	}
	if fromBuckets != s.Count {
		t.Fatalf("bucket sum %d != count %d", fromBuckets, s.Count)
	}
	if s.Sum <= 0 {
		t.Fatalf("sum = %v, want > 0", s.Sum)
	}
}

func FuzzHistogramObserve(f *testing.F) {
	f.Add(int64(0))
	f.Add(int64(1024))
	f.Add(int64(-1))
	f.Add(int64(1) << 41)
	f.Fuzz(func(t *testing.T, ns int64) {
		var h Histogram
		h.Observe(time.Duration(ns))
		s := h.Snapshot()
		if s.Count != 1 {
			t.Fatalf("count = %d after one observation", s.Count)
		}
		for _, q := range []float64{0, 0.5, 1} {
			if v := s.Quantile(q); v < 0 {
				t.Fatalf("negative quantile %v for input %d", v, ns)
			}
		}
	})
}

func TestRegistryPrometheusOutput(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("aod_jobs_total", Label("class", "small"), "Jobs by class.")
	c.Add(3)
	r.Counter("aod_jobs_total", Label("class", "large"), "Jobs by class.").Add(1)
	g := r.Gauge("aod_jobs_in_flight", "", "Jobs running now.")
	g.Set(2)
	r.GaugeFunc("aod_queue_depth", "", "Sampled queue depth.", func() int64 { return 7 })
	r.CounterFunc("aod_tasks_total", "", "Sampled task count.", func() uint64 { return 42 })
	h := r.Histogram("aod_job_seconds", "", "Job latency.")
	h.Observe(3 * time.Millisecond)
	h.Observe(5 * time.Millisecond)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE aod_jobs_total counter",
		`aod_jobs_total{class="small"} 3`,
		`aod_jobs_total{class="large"} 1`,
		"# TYPE aod_jobs_in_flight gauge",
		"aod_jobs_in_flight 2",
		"aod_queue_depth 7",
		"aod_tasks_total 42",
		"# TYPE aod_job_seconds histogram",
		`aod_job_seconds_bucket{le="+Inf"} 2`,
		"aod_job_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
	// HELP/TYPE headers appear once per family even with multiple series.
	if n := strings.Count(out, "# TYPE aod_jobs_total counter"); n != 1 {
		t.Errorf("TYPE header appears %d times, want 1", n)
	}
}

func TestRegistryHandleIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "", "")
	b := r.Counter("x_total", "", "help arrives late")
	if a != b {
		t.Fatal("re-registration returned a different handle")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("handles not shared")
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup", "", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind conflict")
		}
	}()
	r.Gauge("dup", "", "")
}

func TestExactQuantile(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	if v := ExactQuantile(s, 0.5); v != 30 {
		t.Errorf("p50 = %v, want 30", v)
	}
	if v := ExactQuantile(s, 0); v != 10 {
		t.Errorf("p0 = %v, want 10", v)
	}
	if v := ExactQuantile(s, 1); v != 50 {
		t.Errorf("p100 = %v, want 50", v)
	}
	if v := ExactQuantile([]float64{7}, 0.99); v != 7 {
		t.Errorf("single-sample p99 = %v, want 7", v)
	}
	if v := ExactQuantile(nil, 0.5); v != 0 {
		t.Errorf("empty p50 = %v, want 0", v)
	}
	// Interpolated between ranks.
	if v := ExactQuantile([]float64{0, 100}, 0.25); v != 25 {
		t.Errorf("interpolated p25 = %v, want 25", v)
	}
}

func TestQuantilesOf(t *testing.T) {
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Observe(time.Millisecond)
	}
	q := QuantilesOf(&h)
	if q.P50 <= 0 || q.P99 < q.P50 || q.P999 < q.P99 {
		t.Errorf("quantiles not ordered: %+v", q)
	}
}

func TestLabelEscaping(t *testing.T) {
	if got := Label("path", `a"b\c`); got != `path="a\"b\\c"` {
		t.Errorf("Label = %s", got)
	}
}
