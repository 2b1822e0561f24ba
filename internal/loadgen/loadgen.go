// Package loadgen drives a *live* middleware cluster with the paper's
// workload model: closed-loop clients replaying a web trace, entering the
// cluster round-robin, measured after warmup. It is the real-deployment
// counterpart of internal/workload (which drives the simulator), completing
// the §6 arc from simulation to implementation.
package loadgen

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/metrics"
	"repro/internal/middleware"
	"repro/internal/sim"
	"repro/internal/trace"
)

// writeRandomBlock overwrites one random full-size block of file f with a
// deterministic single-byte pattern, returning the bytes written.
func writeRandomBlock(client *middleware.Client, tr *trace.Trace, geom block.Geometry, rng *rand.Rand, f block.FileID) (int, error) {
	size := tr.Size(f)
	nblocks := geom.Count(size)
	idx := int32(rng.Intn(int(nblocks)))
	// The final block may be short; write the exact block length.
	n := int(size - int64(idx)*int64(geom.Size))
	if n > geom.Size {
		n = geom.Size
	}
	if n <= 0 {
		return 0, nil
	}
	data := make([]byte, n)
	tag := byte(rng.Intn(256))
	for i := range data {
		data[i] = tag
	}
	if err := client.Write(f, idx, data); err != nil {
		return 0, err
	}
	return n, nil
}

// Config parameterizes a replay.
type Config struct {
	// Concurrency is the number of closed-loop clients (default 8).
	Concurrency int
	// MaxRequests truncates the trace replay (0: the whole trace).
	MaxRequests int
	// WarmupFrac is the fraction of requests excluded from measurement
	// (default 0.3).
	WarmupFrac float64
	// WriteFrac in [0,1) turns that fraction of replayed requests into
	// single-block writes (write-invalidate through the cluster), the live
	// counterpart of the simulator's write extension. Writes use
	// deterministic per-worker streams, so replays remain reproducible in
	// their op mix.
	WriteFrac float64
	// Geometry is needed to size write payloads when WriteFrac > 0 (zero
	// value: the 8 KB default).
	Geometry block.Geometry
	// Breakpoints are (index, hook) pairs: each hook runs exactly once,
	// synchronously, on the worker that draws its request index, just before
	// that request is issued. Chaos runs crash a node with one; resize runs
	// join nodes with one and drain them with another.
	Breakpoints []Breakpoint
}

// Breakpoint pairs a request index with a hook to run just before that
// index is issued.
type Breakpoint struct {
	// Index is the request index that triggers Fn.
	Index int
	// Fn runs exactly once, synchronously, on the worker that draws Index.
	Fn func()
}

// maxSamples bounds the latency samples a replay retains for percentiles
// (reservoir sampling); mean, min and max stay exact.
const maxSamples = 65536

// Result summarizes a replay.
type Result struct {
	// Requests is the number of measured (post-warmup) requests.
	Requests int
	// Errors counts failed reads (they abort the replay; a nonzero value
	// accompanies the returned error).
	Errors int
	// Bytes is the measured payload volume.
	Bytes int64
	// Elapsed is the measured wall-clock window.
	Elapsed time.Duration
	// Throughput is measured requests per wall-clock second.
	Throughput float64
	// MBps is the measured payload volume in MB (2^20 bytes) per
	// wall-clock second.
	MBps float64
	// Writes is the number of measured write operations (included in
	// Requests).
	Writes int
	// Mean/P50/P95/P99 are response-time statistics.
	Mean, P50, P95, P99 time.Duration
	// WriteP50/WriteP99 are response-time percentiles over the measured
	// write operations alone (zero when WriteFrac is 0). Writes follow a
	// different protocol path than reads (invalidate + write-through), so
	// their tail is reported separately — it is the number the asynchronous
	// invalidation bus exists to improve.
	WriteP50, WriteP99 time.Duration
	// Cluster is the aggregate middleware statistics at the end of the
	// replay (cumulative since cluster start). When a node crashed during
	// the replay (chaos runs) its counters are excluded — they died with
	// it.
	Cluster middleware.Stats
	// Fault is the client-side fault handling during the replay: requests
	// that timed out, failed over to another entry node, or steered
	// around an open breaker.
	Fault middleware.ClientFaultStats
}

// Replay runs the trace against the cluster and reports measurements.
func Replay(client *middleware.Client, tr *trace.Trace, cfg Config) (Result, error) {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	if cfg.WarmupFrac == 0 {
		cfg.WarmupFrac = 0.3
	}
	if cfg.WarmupFrac < 0 || cfg.WarmupFrac >= 1 {
		return Result{}, fmt.Errorf("loadgen: warmup fraction %v out of [0,1)", cfg.WarmupFrac)
	}
	if cfg.WriteFrac < 0 || cfg.WriteFrac >= 1 {
		return Result{}, fmt.Errorf("loadgen: write fraction %v out of [0,1)", cfg.WriteFrac)
	}
	if cfg.Geometry == (block.Geometry{}) {
		cfg.Geometry = block.DefaultGeometry
	}
	total := len(tr.Requests)
	if cfg.MaxRequests > 0 && cfg.MaxRequests < total {
		total = cfg.MaxRequests
	}
	if total == 0 {
		return Result{}, fmt.Errorf("loadgen: empty trace")
	}
	warm := int(cfg.WarmupFrac * float64(total))

	var (
		cursor    atomic.Int64
		nErrors   atomic.Int64
		bytesRead atomic.Int64
		nWrites   atomic.Int64
		measStart atomic.Int64 // unix nanos of first measured issue
		mu        sync.Mutex
		rt        = metrics.NewResponseTimes(maxSamples)
		wrt       = metrics.NewResponseTimes(maxSamples) // writes only
		wg        sync.WaitGroup
		firstErr  error
		errOnce   sync.Once
	)

	worker := func(seed int64) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		// Latencies stay per worker until the end: no lock per request.
		lats := make([]time.Duration, 0, 1024)
		var writeLats []time.Duration
		for {
			idx := int(cursor.Add(1)) - 1
			if idx >= total || nErrors.Load() > 0 {
				break
			}
			f := tr.Requests[idx]
			for _, bp := range cfg.Breakpoints {
				if bp.Fn != nil && idx == bp.Index {
					bp.Fn() // the cursor hands out each index once
				}
			}
			start := time.Now()
			if idx == warm {
				measStart.Store(start.UnixNano())
			}
			var nbytes int
			var err error
			isWrite := cfg.WriteFrac > 0 && rng.Float64() < cfg.WriteFrac
			if isWrite {
				nbytes, err = writeRandomBlock(client, tr, cfg.Geometry, rng, f)
			} else {
				var data []byte
				data, err = client.Read(f)
				nbytes = len(data)
			}
			if err != nil {
				nErrors.Add(1)
				errOnce.Do(func() { firstErr = fmt.Errorf("loadgen: request %d (file %d): %w", idx, f, err) })
				break
			}
			if idx >= warm {
				lat := time.Since(start)
				lats = append(lats, lat)
				bytesRead.Add(int64(nbytes))
				if isWrite {
					writeLats = append(writeLats, lat)
					nWrites.Add(1)
				}
			}
		}
		mu.Lock()
		for _, lat := range lats {
			rt.Add(sim.Duration(lat))
		}
		for _, lat := range writeLats {
			wrt.Add(sim.Duration(lat))
		}
		mu.Unlock()
	}

	conc := cfg.Concurrency
	if conc > total {
		conc = total
	}
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go worker(int64(w + 1))
	}
	wg.Wait()
	end := time.Now()

	res := Result{
		Requests: rt.Count(),
		Errors:   int(nErrors.Load()),
		Bytes:    bytesRead.Load(),
		Writes:   int(nWrites.Load()),
	}
	if firstErr != nil {
		return res, firstErr
	}
	if ms := measStart.Load(); ms > 0 {
		res.Elapsed = end.Sub(time.Unix(0, ms))
	}
	if res.Elapsed > 0 {
		res.Throughput = float64(res.Requests) / res.Elapsed.Seconds()
		res.MBps = float64(res.Bytes) / res.Elapsed.Seconds() / (1 << 20)
	}
	if rt.Count() > 0 {
		res.Mean = time.Duration(rt.Mean())
		q := rt.Percentiles(0.50, 0.95, 0.99)
		res.P50, res.P95, res.P99 = time.Duration(q[0]), time.Duration(q[1]), time.Duration(q[2])
	}
	if wrt.Count() > 0 {
		q := wrt.Percentiles(0.50, 0.99)
		res.WriteP50, res.WriteP99 = time.Duration(q[0]), time.Duration(q[1])
	}
	if stats, err := client.ClusterStats(); err == nil {
		res.Cluster = stats
	}
	res.Fault = client.FaultStats()
	return res, nil
}

// String formats the result as a report.
func (r Result) String() string {
	s := fmt.Sprintf(
		"requests=%d (writes=%d) errors=%d bytes=%d elapsed=%v tput=%.0f req/s %.1f MB/s mean=%v p50=%v p95=%v p99=%v | cluster: hit=%.1f%% local=%d remote=%d disk=%d forwards=%d",
		r.Requests, r.Writes, r.Errors, r.Bytes, r.Elapsed.Round(time.Millisecond), r.Throughput, r.MBps,
		r.Mean.Round(time.Microsecond), r.P50.Round(time.Microsecond),
		r.P95.Round(time.Microsecond), r.P99.Round(time.Microsecond),
		r.Cluster.HitRate()*100, r.Cluster.LocalHits, r.Cluster.RemoteHits,
		r.Cluster.DiskReads, r.Cluster.Forwards)
	if r.Writes > 0 {
		s += fmt.Sprintf(" | writes: p50=%v p99=%v",
			r.WriteP50.Round(time.Microsecond), r.WriteP99.Round(time.Microsecond))
	}
	c := r.Cluster
	if c.RPCTimeouts+c.RPCRetries+c.HomeFallbacks+c.BreakerOpens+c.InvalidateSkips+
		r.Fault.Timeouts+r.Fault.Failovers+r.Fault.BreakerSkips > 0 {
		s += fmt.Sprintf(" | faults: timeouts=%d retries=%d fallbacks=%d breaker_opens=%d invalidate_skips=%d client_timeouts=%d client_failovers=%d",
			c.RPCTimeouts, c.RPCRetries, c.HomeFallbacks, c.BreakerOpens,
			c.InvalidateSkips, r.Fault.Timeouts, r.Fault.Failovers)
	}
	return s
}
