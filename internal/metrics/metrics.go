// Package metrics provides the measurement accumulators used by the
// workload driver: response-time statistics and throughput computation for
// the steady-state window after cache warmup (§4.3: throughput is measured
// only after the caches have been warmed).
package metrics

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/sim"
)

// reservoirSeed makes reservoir sampling deterministic: two runs that Add
// the same sequence keep the same sample set. The reservoir RNG is private
// to the accumulator, so it never perturbs a simulation's event stream.
const reservoirSeed = 0x5ca1ab1e

// ResponseTimes accumulates per-request response times.
//
// The zero value records every sample exactly (use Reserve to pre-size the
// sample slice when the request count is known). NewResponseTimes builds a
// bounded accumulator instead: a fixed-size uniform reservoir (Vitter's
// algorithm R) that caps memory on full-scale runs. Count, Mean, Min, and
// Max are exact in both modes; Percentile is exact in exact mode and an
// unbiased estimate in reservoir mode.
//
// All methods are safe for concurrent use. In particular Percentile, which
// sorts the retained samples lazily, holds the same lock as Add — a live
// load generator may read percentiles mid-run while workers keep recording.
// Because of the internal mutex a ResponseTimes must not be copied after
// first use; pass it by pointer.
type ResponseTimes struct {
	mu      sync.Mutex
	samples []sim.Duration
	sum     sim.Duration
	min     sim.Duration
	max     sim.Duration
	count   int
	limit   int // >0: reservoir capacity
	rng     *rand.Rand
	sorted  bool
}

// NewResponseTimes returns a reservoir-sampling accumulator that retains at
// most capacity samples, chosen uniformly from everything Added.
func NewResponseTimes(capacity int) *ResponseTimes {
	if capacity <= 0 {
		panic(fmt.Sprintf("metrics: reservoir capacity %d must be positive", capacity))
	}
	return &ResponseTimes{
		samples: make([]sim.Duration, 0, capacity),
		limit:   capacity,
		rng:     rand.New(rand.NewSource(reservoirSeed)),
	}
}

// Reserve pre-sizes the exact-mode sample slice for n expected samples, so a
// measurement loop does not regrow it incrementally. It is a no-op in
// reservoir mode or when enough capacity is already allocated.
func (r *ResponseTimes) Reserve(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.limit > 0 || n <= cap(r.samples) {
		return
	}
	s := make([]sim.Duration, len(r.samples), n)
	copy(s, r.samples)
	r.samples = s
}

// Add records one response time.
func (r *ResponseTimes) Add(d sim.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.count == 0 || d < r.min {
		r.min = d
	}
	if r.count == 0 || d > r.max {
		r.max = d
	}
	r.count++
	r.sum += d
	if r.limit > 0 && len(r.samples) == r.limit {
		// Algorithm R: the new sample replaces a random slot with
		// probability limit/count, keeping the reservoir uniform.
		if j := r.rng.Intn(r.count); j < r.limit {
			r.samples[j] = d
			r.sorted = false
		}
		return
	}
	r.samples = append(r.samples, d)
	r.sorted = false
}

// Count reports the number of recorded responses (all of them, even those a
// reservoir no longer retains).
func (r *ResponseTimes) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Sampled reports how many samples are retained for percentile estimation.
func (r *ResponseTimes) Sampled() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.samples)
}

// Mean reports the average response time (0 with no samples). It is exact
// in both modes.
func (r *ResponseTimes) Mean() sim.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.count == 0 {
		return 0
	}
	return r.sum / sim.Duration(r.count)
}

// Min reports the fastest response.
func (r *ResponseTimes) Min() sim.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.min
}

// Max reports the slowest response.
func (r *ResponseTimes) Max() sim.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.max
}

// Percentile reports the p-quantile (p in [0,1]) by nearest rank over the
// retained samples.
func (r *ResponseTimes) Percentile(p float64) sim.Duration {
	return r.Percentiles(p)[0]
}

// Percentiles reports the quantiles ps (each in [0,1]) by nearest rank,
// all read under one lock from one sample set. Separate Percentile calls
// beside a concurrent Add may see different sets: a reservoir replacement
// between them can leave a later p99 below an earlier p50. The lazy sort
// runs under the lock too (an Add may clear sorted again; only the sort is
// redone).
func (r *ResponseTimes) Percentiles(ps ...float64) []sim.Duration {
	for _, p := range ps {
		if p < 0 || p > 1 {
			panic(fmt.Sprintf("metrics: percentile %v out of [0,1]", p))
		}
	}
	out := make([]sim.Duration, len(ps))
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.samples) == 0 {
		return out
	}
	if !r.sorted {
		sort.Slice(r.samples, func(i, j int) bool { return r.samples[i] < r.samples[j] })
		r.sorted = true
	}
	for i, p := range ps {
		out[i] = r.samples[int(p*float64(len(r.samples)-1))]
	}
	return out
}

// Throughput reports completed requests per second of virtual time over the
// window [start, end].
func Throughput(completed int, start, end sim.Time) float64 {
	window := end.Sub(start).Seconds()
	if window <= 0 {
		return 0
	}
	return float64(completed) / window
}
