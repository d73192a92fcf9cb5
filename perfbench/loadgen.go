package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aod/internal/load"
)

// request is one planned service request.
type request struct {
	seq   int
	at    time.Duration // due offset from the start of the window
	class string
	// dataset indexes the small or large dataset universe; for a fresh
	// request it indexes the pre-generated fresh upload bodies.
	dataset int
}

// planConfig parameterizes a request plan.
type planConfig struct {
	rate   float64
	window time.Duration
	// mix weighs the classes, in the order of classes.
	mix            []float64
	zipf           float64
	nSmall, nLarge int
}

// buildPlan draws the open-loop request schedule. A window holds a fixed
// number of requests, round(rate × window), split across the classes in
// proportion to the mix, so every seed offers the same work and only its
// timing and order vary. Large requests, the batch load, arrive evenly
// spaced from a seed-drawn phase, so their 300 ms boxes do not pile up by
// chance. The others arrive as a Poisson process conditioned on their
// count — uniform times, sorted — with their classes in a seed-drawn order.
// Each request then picks a dataset with zipf skew. Every draw comes from
// one RNG seeded by seed, so a seed names one exact request sequence.
func buildPlan(seed int64, c planConfig) ([]request, error) {
	if len(c.mix) != len(classes) {
		return nil, fmt.Errorf("mix has %d weights for %d classes", len(c.mix), len(classes))
	}
	zSmall, err := load.NewZipf(c.nSmall, c.zipf)
	if err != nil {
		return nil, err
	}
	zLarge, err := load.NewZipf(c.nLarge, c.zipf)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	counts := apportion(int(math.Round(c.rate*c.window.Seconds())), c.mix)
	var plan []request
	var interactive []string
	for k, class := range classes {
		if class != "large" {
			for range counts[k] {
				interactive = append(interactive, class)
			}
			continue
		}
		phase := rng.Float64()
		for i := range counts[k] {
			at := (float64(i) + phase) / float64(counts[k]) * float64(c.window)
			plan = append(plan, request{at: time.Duration(at), class: class})
		}
	}
	rng.Shuffle(len(interactive), func(i, j int) { interactive[i], interactive[j] = interactive[j], interactive[i] })
	times := make([]float64, len(interactive))
	for i := range times {
		times[i] = rng.Float64()
	}
	sort.Float64s(times)
	for i, class := range interactive {
		plan = append(plan, request{at: time.Duration(times[i] * float64(c.window)), class: class})
	}
	sort.SliceStable(plan, func(i, j int) bool { return plan[i].at < plan[j].at })
	fresh := 0
	for i := range plan {
		r := &plan[i]
		r.seq = i
		switch r.class {
		case "fresh":
			r.dataset = fresh
			fresh++
		case "large":
			r.dataset = zLarge.Pick(rng)
		default:
			r.dataset = zSmall.Pick(rng)
		}
	}
	return plan, nil
}

// apportion splits n into counts proportional to weights, rounding by
// largest remainder so the counts sum to n.
func apportion(n int, weights []float64) []int {
	var total float64
	for _, w := range weights {
		total += w
	}
	counts := make([]int, len(weights))
	rem := make([]float64, len(weights))
	left := n
	for i, w := range weights {
		exact := float64(n) * w / total
		counts[i] = int(exact)
		rem[i] = exact - float64(counts[i])
		left -= counts[i]
	}
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for i := 0; i < left; i++ {
		counts[order[i]]++
	}
	return counts
}

// countClass returns how many planned requests have the class.
func countClass(plan []request, class string) int {
	n := 0
	for _, r := range plan {
		if r.class == class {
			n++
		}
	}
	return n
}

// openLoop fires every planned request at start+r.at, each on its own
// goroutine, never waiting for earlier requests to complete: a slow server
// delays responses, not arrivals. fire receives the request, its due time
// and how late the generator dispatched it; the caller times the request
// from the due time, so lateness counts against it. openLoop returns once
// every fired request has returned; canceling ctx stops further dispatch.
func openLoop(ctx context.Context, clock load.Clock, plan []request, fire func(r request, due time.Time, late time.Duration)) (dispatched int, inflightMax int64) {
	var wg sync.WaitGroup
	var inflight, peak atomic.Int64
	start := clock.Now()
	for _, r := range plan {
		if ctx.Err() != nil {
			break
		}
		due := start.Add(r.at)
		clock.SleepUntil(due)
		late := max(0, clock.Now().Sub(due))
		wg.Add(1)
		dispatched++
		go func(r request) {
			defer wg.Done()
			n := inflight.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			fire(r, due, late)
			inflight.Add(-1)
		}(r)
	}
	wg.Wait()
	return dispatched, peak.Load()
}
