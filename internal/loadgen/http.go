package loadgen

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// httpTimeout bounds one HTTP request end to end.
const httpTimeout = 60 * time.Second

// HTTPConfig parameterizes an HTTP replay against a gateway.
type HTTPConfig struct {
	// Connections is the number of closed-loop clients (default 64). Each
	// holds one persistent keep-alive connection at steady state, so this
	// is also the concurrent-connection count the gateway sustains.
	Connections int
	// MaxRequests truncates the trace replay (0: the whole trace).
	MaxRequests int
	// WarmupFrac is the fraction of requests excluded from measurement
	// (default 0.3).
	WarmupFrac float64
}

// HTTPResult summarizes an HTTP replay.
type HTTPResult struct {
	// Requests is the number of measured (post-warmup) requests.
	Requests int
	// Errors counts failed requests (transport errors and non-200
	// statuses); the first aborts the replay.
	Errors int
	// Bytes is the measured response body volume.
	Bytes int64
	// Elapsed is the measured wall-clock window.
	Elapsed time.Duration
	// Throughput is measured requests per wall-clock second.
	Throughput float64
	// MBps is the measured body volume in MB (2^20 bytes) per second.
	MBps float64
	// Mean/P50/P95/P99 are response-time statistics.
	Mean, P50, P95, P99 time.Duration
	// ConnsOpened is the number of TCP connections the client pool dialed:
	// at steady state it approximates the peak concurrent keep-alive
	// connections (reuse keeps it from growing past the worker count).
	ConnsOpened int64
}

// ReplayHTTP drives tr's request stream against an HTTP gateway at
// baseURL: cfg.Connections closed-loop workers issue keep-alive GETs of
// pathOf(file) in trace order, measured after warmup — the HTTP-layer
// counterpart of Replay, with the gateway (not this process) doing the
// cluster entry and hand-off.
func ReplayHTTP(baseURL string, tr *trace.Trace, pathOf func(block.FileID) string, cfg HTTPConfig) (HTTPResult, error) {
	if cfg.Connections <= 0 {
		cfg.Connections = 64
	}
	if cfg.WarmupFrac == 0 {
		cfg.WarmupFrac = 0.3
	}
	if cfg.WarmupFrac < 0 || cfg.WarmupFrac >= 1 {
		return HTTPResult{}, fmt.Errorf("loadgen: warmup fraction %v out of [0,1)", cfg.WarmupFrac)
	}
	total := len(tr.Requests)
	if cfg.MaxRequests > 0 && cfg.MaxRequests < total {
		total = cfg.MaxRequests
	}
	if total == 0 {
		return HTTPResult{}, fmt.Errorf("loadgen: empty trace")
	}
	warm := int(cfg.WarmupFrac * float64(total))

	var connsOpened atomic.Int64
	dialer := &net.Dialer{Timeout: 15 * time.Second, KeepAlive: 30 * time.Second}
	transport := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := dialer.DialContext(ctx, network, addr)
			if err == nil {
				connsOpened.Add(1)
			}
			return c, err
		},
		// Idle-pool headroom above the worker count so a momentarily idle
		// connection is parked, not closed: the whole fleet stays warm.
		MaxIdleConns:        cfg.Connections + 64,
		MaxIdleConnsPerHost: cfg.Connections + 64,
		IdleConnTimeout:     120 * time.Second,
	}
	defer transport.CloseIdleConnections()
	httpc := &http.Client{Transport: transport, Timeout: httpTimeout}

	var (
		cursor    atomic.Int64
		nErrors   atomic.Int64
		bytesRead atomic.Int64
		measStart atomic.Int64
		mu        sync.Mutex
		rt        = metrics.NewResponseTimes(maxSamples)
		wg        sync.WaitGroup
		firstErr  error
		errOnce   sync.Once
	)

	worker := func() {
		defer wg.Done()
		buf := make([]byte, 32*1024)
		for {
			idx := int(cursor.Add(1)) - 1
			if idx >= total || nErrors.Load() > 0 {
				return
			}
			f := tr.Requests[idx]
			start := time.Now()
			if idx == warm {
				measStart.Store(start.UnixNano())
			}
			nbytes, err := doGet(httpc, baseURL+pathOf(f), buf)
			if err != nil {
				nErrors.Add(1)
				errOnce.Do(func() { firstErr = fmt.Errorf("loadgen: http request %d (file %d): %w", idx, f, err) })
				return
			}
			if idx >= warm {
				mu.Lock()
				rt.Add(sim.Duration(time.Since(start)))
				mu.Unlock()
				bytesRead.Add(nbytes)
			}
		}
	}

	conc := cfg.Connections
	if conc > total {
		conc = total
	}
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go worker()
	}
	wg.Wait()
	end := time.Now()

	res := HTTPResult{
		Requests:    rt.Count(),
		Errors:      int(nErrors.Load()),
		Bytes:       bytesRead.Load(),
		ConnsOpened: connsOpened.Load(),
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
	return res, nil
}

// doGet issues one GET and drains the body through buf (the drain is what
// returns the connection to the keep-alive pool), returning the body size.
func doGet(c *http.Client, url string, buf []byte) (int64, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, err
	}
	n, err := io.CopyBuffer(io.Discard, resp.Body, buf)
	resp.Body.Close()
	if err != nil {
		return n, err
	}
	if resp.StatusCode != http.StatusOK {
		return n, fmt.Errorf("status %s", resp.Status)
	}
	return n, nil
}

// String formats the result as a report.
func (r HTTPResult) String() string {
	return fmt.Sprintf(
		"http: requests=%d errors=%d bytes=%d elapsed=%v tput=%.0f req/s %.1f MB/s mean=%v p50=%v p95=%v p99=%v conns=%d",
		r.Requests, r.Errors, r.Bytes, r.Elapsed.Round(time.Millisecond), r.Throughput, r.MBps,
		r.Mean.Round(time.Microsecond), r.P50.Round(time.Microsecond),
		r.P95.Round(time.Microsecond), r.P99.Round(time.Microsecond), r.ConnsOpened)
}

// PathForFile is the canonical URL path of a synthetic-manifest file on a
// gateway: "/f/<id>". ccnode -http-addr and ccload -http-url agree on it.
func PathForFile(f block.FileID) string { return fmt.Sprintf("/f/%d", f) }
