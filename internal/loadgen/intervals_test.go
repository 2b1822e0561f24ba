package loadgen

import (
	"testing"
	"time"

	"repro/internal/middleware"
)

// TestBuildIntervals pins the time-series bucketing: samples land in the
// bucket of their issue time, rates are computed over the bucket width,
// pre-measurement samples are excluded, and fault-counter deltas are
// attributed to the bucket whose boundary the snapshot precedes.
func TestBuildIntervals(t *testing.T) {
	const start = int64(1_000_000_000) // measurement start, unix nanos
	w := 100 * time.Millisecond
	ms := int64(time.Millisecond)

	samples := []isample{
		{at: start - 1*ms, lat: time.Millisecond, bytes: 999},                     // warmup: excluded
		{at: start + 10*ms, lat: 1 * time.Millisecond, bytes: 1000},               // bucket 0
		{at: start + 90*ms, lat: 3 * time.Millisecond, bytes: 1000},               // bucket 0
		{at: start + 150*ms, lat: 5 * time.Millisecond, bytes: 2000, write: true}, // bucket 1
		{at: start + 310*ms, lat: 7 * time.Millisecond, bytes: 4000},              // bucket 3
	}
	faults := []faultSample{
		{at: start + 50*ms, fs: middleware.ClientFaultStats{Timeouts: 1}},
		{at: start + 180*ms, fs: middleware.ClientFaultStats{Timeouts: 1, Failovers: 2}},
		{at: start + 400*ms, fs: middleware.ClientFaultStats{Timeouts: 3, Failovers: 2, BreakerSkips: 1}},
	}

	stats := []statSample{
		// Bucket 0 boundary state: 10 accesses, 4 hits (2 local, 2 remote).
		{at: start + 60*ms, st: middleware.Stats{Accesses: 10, LocalHits: 2, RemoteHits: 2, MembershipEpoch: 1}},
		// Bucket 1: +10 accesses, +8 hits -> hit rate 0.8, with a rebalance
		// in flight.
		{at: start + 170*ms, st: middleware.Stats{Accesses: 20, LocalHits: 8, RemoteHits: 4, MembershipEpoch: 2, RebalancePending: 3}},
		// Bucket 3: counters dipped (a node crashed): clamp to 0, not wrap.
		{at: start + 390*ms, st: middleware.Stats{Accesses: 25, LocalHits: 6, RemoteHits: 3, MembershipEpoch: 2}},
	}

	out := buildIntervals(samples, faults, stats, start, w)
	if len(out) != 4 {
		t.Fatalf("got %d buckets, want 4 (last sample at 310ms / 100ms width)", len(out))
	}

	b0 := out[0]
	if b0.I != 0 || b0.StartMs != 0 {
		t.Fatalf("bucket 0 indexed %d@%dms", b0.I, b0.StartMs)
	}
	if b0.Requests != 2 || b0.Bytes != 2000 || b0.Writes != 0 {
		t.Fatalf("bucket 0 = %d req / %d bytes / %d writes, want 2/2000/0", b0.Requests, b0.Bytes, b0.Writes)
	}
	if b0.ReqPerSec != 20 {
		t.Fatalf("bucket 0 rate = %v req/s, want 20", b0.ReqPerSec)
	}
	// Floor-rank percentiles over {1ms, 3ms}: both p50 and p99 truncate to
	// rank 0 (metrics.Percentile's established semantics).
	if b0.P50Micros != 1000 || b0.P99Micros != 1000 {
		t.Fatalf("bucket 0 p50/p99 = %d/%d µs, want 1000/1000", b0.P50Micros, b0.P99Micros)
	}
	// The snapshot at +50ms (Timeouts=1) is bucket 0's end-boundary state.
	if b0.ClientTimeouts != 1 || b0.ClientFailovers != 0 {
		t.Fatalf("bucket 0 fault deltas = %d timeouts / %d failovers, want 1/0", b0.ClientTimeouts, b0.ClientFailovers)
	}

	b1 := out[1]
	if b1.Requests != 1 || b1.Writes != 1 || b1.Bytes != 2000 {
		t.Fatalf("bucket 1 = %d req / %d writes / %d bytes, want 1/1/2000", b1.Requests, b1.Writes, b1.Bytes)
	}
	if b1.StartMs != 100 {
		t.Fatalf("bucket 1 starts at %d ms, want 100", b1.StartMs)
	}
	// The +180ms snapshot lands inside bucket 1: its failover delta does too.
	if b1.ClientFailovers != 2 || b1.ClientTimeouts != 0 {
		t.Fatalf("bucket 1 fault deltas = %d failovers / %d timeouts, want 2/0", b1.ClientFailovers, b1.ClientTimeouts)
	}

	if out[2].Requests != 0 || out[2].P50Micros != 0 {
		t.Fatalf("empty bucket 2 not zeroed: %+v", out[2])
	}

	b3 := out[3]
	if b3.Requests != 1 || b3.P50Micros != 7000 {
		t.Fatalf("bucket 3 = %d req p50=%dµs, want 1 req p50=7000µs", b3.Requests, b3.P50Micros)
	}
	// The +400ms snapshot is at (not past) bucket 3's end boundary: the
	// remaining deltas (2 timeouts, 1 breaker skip) belong to it.
	if b3.ClientTimeouts != 2 || b3.ClientBreakerSkips != 1 {
		t.Fatalf("bucket 3 fault deltas = %d timeouts / %d skips, want 2/1", b3.ClientTimeouts, b3.ClientBreakerSkips)
	}

	// Totals across buckets must conserve the input.
	var reqs, writes int
	var bytes int64
	var tos, fos, skips uint64
	for _, b := range out {
		reqs += b.Requests
		writes += b.Writes
		bytes += b.Bytes
		tos += b.ClientTimeouts
		fos += b.ClientFailovers
		skips += b.ClientBreakerSkips
	}
	if reqs != 4 || writes != 1 || bytes != 8000 {
		t.Fatalf("totals = %d req / %d writes / %d bytes, want 4/1/8000", reqs, writes, bytes)
	}
	if tos != 3 || fos != 2 || skips != 1 {
		t.Fatalf("fault totals = %d/%d/%d, want the final snapshot 3/2/1", tos, fos, skips)
	}

	// Hit-rate series: bucket 0 has no prior snapshot (-1), bucket 1's
	// delta is 8 hits over 10 accesses, bucket 2 has no snapshot (-1),
	// bucket 3's hit delta dipped below zero and clamps to a 0 rate.
	if b0.HitRate != -1 {
		t.Fatalf("bucket 0 hit rate = %v, want -1 (no prior snapshot)", b0.HitRate)
	}
	if b1.HitRate != 0.8 || b1.RebalancePending != 3 || b1.MembershipEpoch != 2 {
		t.Fatalf("bucket 1 = hit %.2f pending %d epoch %d, want 0.80/3/2",
			b1.HitRate, b1.RebalancePending, b1.MembershipEpoch)
	}
	if out[2].HitRate != -1 {
		t.Fatalf("bucket 2 hit rate = %v, want -1 (no snapshot)", out[2].HitRate)
	}
	if b3.HitRate != 0 || b3.RebalancePending != 0 {
		t.Fatalf("bucket 3 = hit %v pending %d, want clamped 0 and no pending", b3.HitRate, b3.RebalancePending)
	}
}

// TestBuildIntervalsEmpty covers the degenerate inputs.
func TestBuildIntervalsEmpty(t *testing.T) {
	if out := buildIntervals(nil, nil, nil, 1, time.Second); out != nil {
		t.Fatalf("no samples should yield no intervals, got %v", out)
	}
	if out := buildIntervals([]isample{{at: 5}}, nil, nil, 0, time.Second); out != nil {
		t.Fatalf("unset measurement start should yield no intervals, got %v", out)
	}
	// Only warmup samples: nothing measurable.
	if out := buildIntervals([]isample{{at: 5}}, nil, nil, 10, time.Second); out != nil {
		t.Fatalf("warmup-only samples should yield no intervals, got %v", out)
	}
}

// TestReplayIntervals runs a live replay and checks the interval series is
// attached and self-consistent with the aggregate result.
func TestReplayIntervals(t *testing.T) {
	client, sizes := startCluster(t, 2, 256)
	tr := replayTrace(sizes, 400)
	res, err := Replay(client, tr, Config{
		Concurrency: 4,
		WarmupFrac:  0.2,
		Interval:    10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(res.Intervals) == 0 {
		t.Fatal("replay with a positive Interval produced no time series")
	}
	var reqs int
	var bytes int64
	for i, iv := range res.Intervals {
		if iv.I != i {
			t.Fatalf("interval %d has index %d", i, iv.I)
		}
		reqs += iv.Requests
		bytes += iv.Bytes
	}
	if reqs != res.Requests {
		t.Fatalf("interval requests sum to %d, aggregate says %d", reqs, res.Requests)
	}
	if bytes != res.Bytes {
		t.Fatalf("interval bytes sum to %d, aggregate says %d", bytes, res.Bytes)
	}

	// A negative Interval disables the series.
	res2, err := Replay(client, tr, Config{Concurrency: 4, WarmupFrac: 0.2, Interval: -1})
	if err != nil {
		t.Fatalf("replay without intervals: %v", err)
	}
	if res2.Intervals != nil {
		t.Fatalf("negative Interval still produced %d buckets", len(res2.Intervals))
	}
}
