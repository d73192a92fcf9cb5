package main

import (
	"math/rand"
	"runtime"
	"sort"
	"time"
)

// calibrationNominal is the calibration time the end-to-end timings are
// scaled to: they read what the benchmark would have measured on a host
// whose calibration task takes this long.
const calibrationNominal = 40 * time.Millisecond

// calibrator times a fixed task — sorting the same 2^18 pseudo-random
// integers with sort.Slice — to gauge how fast the host runs right now. On
// the shared two-core host the benchmark was built on, discovery jobs slow
// down by up to half while neighbours load the machine; over 40 windows of
// 15 seconds, a sort-based calibration tracked discovery jobs with a
// correlation of 0.97 to 0.99 (a pure arithmetic loop: 0.89), and
// discovery time divided by it spread 2–3% where raw discovery time spread
// 8–10%. The task is standard-library code, so no change to this
// repository moves it.
type calibrator struct {
	src, dst []int32
	samples  []float64 // ms
}

func newCalibrator() *calibrator {
	rng := rand.New(rand.NewSource(1))
	src := make([]int32, 1<<18)
	for i := range src {
		src[i] = rng.Int31()
	}
	return &calibrator{src: src, dst: make([]int32, len(src))}
}

// sample times the task once, after a garbage collection.
func (c *calibrator) sample() {
	runtime.GC()
	t0 := time.Now()
	copy(c.dst, c.src)
	sort.Slice(c.dst, func(i, j int) bool { return c.dst[i] < c.dst[j] })
	c.samples = append(c.samples, ms(time.Since(t0)))
}

// median returns the median sample in ms.
func (c *calibrator) median() float64 { return median(c.samples) }

// scale is the factor that converts a timing taken on this host now into
// one at calibrationNominal.
func (c *calibrator) scale() float64 { return ratio(ms(calibrationNominal), c.median()) }
