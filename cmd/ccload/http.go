package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/block"
	"repro/internal/httpfront"
	"repro/internal/loadgen"
	"repro/internal/middleware"
	"repro/internal/obs"
	"repro/internal/trace"
)

// httpOpts carries the knobs of an HTTP replay (ccload -http).
type httpOpts struct {
	out         string // bench document path
	url         string // external gateway base URL ("" → in-process)
	clf         string // Common Log Format access log ("" → synthetic trace)
	nodes       int
	capacity    int
	files       int
	avg         int64
	requests    int
	connections int
	zipf        float64
	seed        int64
	warmup      float64
	interval    time.Duration
}

// httpRecord is an HTTP replay's outcome, stored in the bench document's
// "http" section.
type httpRecord struct {
	URL         string `json:"url,omitempty"` // external gateway, when not in-process
	CLF         string `json:"clf,omitempty"` // replayed access log, when not synthetic
	Nodes       int    `json:"nodes,omitempty"`
	Capacity    int    `json:"capacity_blocks,omitempty"`
	Files       int    `json:"files"`
	Connections int    `json:"connections"`
	Requests    int    `json:"requests"`
	Errors      int    `json:"errors"`
	Bytes       int64  `json:"bytes"`

	ElapsedMS   float64 `json:"elapsed_ms"`
	ReqPerSec   float64 `json:"req_per_sec"`
	MBPerSec    float64 `json:"mb_per_sec"`
	MeanUS      float64 `json:"mean_us"`
	P50US       float64 `json:"p50_us"`
	P95US       float64 `json:"p95_us"`
	P99US       float64 `json:"p99_us"`
	ConnsOpened int64   `json:"conns_opened"`

	// Gateway is the gateway-side serving-counter delta over the replay:
	// hand-offs, 304s, range requests, errors, bytes. In-process it is read
	// directly; against an external gateway it is scraped from /httpstats.
	Gateway *httpfront.GatewayStats `json:"gateway,omitempty"`

	// Cluster cache behaviour behind the gateway (in-process runs only).
	HitRate float64 `json:"hit_rate,omitempty"`
	Local   uint64  `json:"local_hits,omitempty"`
	Remote  uint64  `json:"remote_hits,omitempty"`
	Disk    uint64  `json:"disk_reads,omitempty"`

	Intervals []loadgen.Interval `json:"intervals,omitempty"`
}

// runHTTP replays a trace over HTTP — the full production path: keep-alive
// connections into an httpfront gateway, hand-off to home nodes, streaming
// reads out of the live cluster. With o.url set it drives an already-running
// gateway (ccnode -serve -http-addr) and scrapes its /httpstats for the
// hand-off counters; otherwise it starts an in-process cluster + gateway on
// a real TCP listener. The result lands in the document's "http" section.
func runHTTP(o httpOpts) error {
	tr, err := httpTrace(o)
	if err != nil {
		return err
	}

	rec := httpRecord{
		URL:         o.url,
		CLF:         o.clf,
		Files:       len(tr.Files),
		Connections: o.connections,
	}

	var replay func() (loadgen.HTTPResult, *httpfront.GatewayStats, error)
	if o.url != "" {
		replay = func() (loadgen.HTTPResult, *httpfront.GatewayStats, error) {
			before, berr := scrapeGatewayStats(o.url)
			res, err := loadgen.ReplayHTTP(o.url, tr, loadgen.PathForFile, httpReplayConfig(o, tr))
			if err != nil {
				return res, nil, err
			}
			var delta *httpfront.GatewayStats
			if after, aerr := scrapeGatewayStats(o.url); berr == nil && aerr == nil {
				d := gatewayDelta(before, after)
				delta = &d
			}
			return res, delta, nil
		}
	} else {
		rec.Nodes, rec.Capacity = o.nodes, o.capacity
		replay = func() (loadgen.HTTPResult, *httpfront.GatewayStats, error) {
			return replayInProcess(o, tr, &rec)
		}
	}

	res, gwStats, err := replay()
	if err != nil {
		return fmt.Errorf("http replay: %w", err)
	}
	fmt.Println(res)

	rec.Requests = res.Requests
	rec.Errors = res.Errors
	rec.Bytes = res.Bytes
	rec.ElapsedMS = float64(res.Elapsed) / float64(time.Millisecond)
	rec.ReqPerSec = res.Throughput
	rec.MBPerSec = res.MBps
	rec.MeanUS = float64(res.Mean) / float64(time.Microsecond)
	rec.P50US = float64(res.P50) / float64(time.Microsecond)
	rec.P95US = float64(res.P95) / float64(time.Microsecond)
	rec.P99US = float64(res.P99) / float64(time.Microsecond)
	rec.ConnsOpened = res.ConnsOpened
	rec.Gateway = gwStats
	rec.Intervals = res.Intervals
	if gwStats != nil {
		log.Printf("gateway: requests=%d handoffs=%d not_modified=%d range=%d errors=%d",
			gwStats.Requests, gwStats.Handoffs, gwStats.NotModified, gwStats.RangeRequests, gwStats.Errors)
	}

	doc := loadBenchDoc(o.out)
	doc.HTTP = &rec
	return writeBenchDoc(o.out, doc)
}

// httpTrace builds the replay stream: a parsed access log when -clf is set,
// the standing synthetic manifest otherwise. The synthetic stream is padded
// or truncated to o.requests; a CLF stream keeps the log's own length unless
// -requests is shorter.
func httpTrace(o httpOpts) (*trace.Trace, error) {
	if o.clf == "" {
		sizes := fileSizes(o.files, o.avg)
		return buildTrace(o.files, sizes, o.requests, o.zipf, o.avg, o.seed), nil
	}
	f, err := os.Open(o.clf)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := trace.ParseCLF(o.clf, f)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", o.clf, err)
	}
	log.Printf("clf %s: %d files, %d requests", o.clf, len(tr.Files), len(tr.Requests))
	return tr, nil
}

// httpReplayConfig maps the flag set onto the loadgen HTTP config.
func httpReplayConfig(o httpOpts, tr *trace.Trace) loadgen.HTTPConfig {
	cfg := loadgen.HTTPConfig{
		Connections: o.connections,
		WarmupFrac:  o.warmup,
		Interval:    o.interval,
	}
	if o.clf != "" && o.requests > 0 && o.requests < len(tr.Requests) {
		cfg.MaxRequests = o.requests
	}
	return cfg
}

// replayInProcess starts a cluster and a gateway on a loopback listener,
// replays through the real network stack, and reads the gateway and cluster
// counters directly. Note each keep-alive connection costs two descriptors
// here (client and server end share the process); very large -connections
// runs should start the gateway as a separate ccnode -http-addr process and
// use -http-url instead.
func replayInProcess(o httpOpts, tr *trace.Trace, rec *httpRecord) (loadgen.HTTPResult, *httpfront.GatewayStats, error) {
	sizes := make(map[block.FileID]int64, len(tr.Files))
	table := make(map[string]block.FileID, len(tr.Files))
	for _, f := range tr.Files {
		sizes[f.ID] = f.Size
		table[loadgen.PathForFile(f.ID)] = f.ID
	}
	_, addrs, shutdown, err := startCluster(o.nodes, o.capacity, sizes, nil)
	if err != nil {
		return loadgen.HTTPResult{}, nil, err
	}
	defer shutdown()
	client, err := middleware.DialCluster(addrs)
	if err != nil {
		return loadgen.HTTPResult{}, nil, err
	}
	defer client.Close()

	gw := httpfront.New(client, httpfront.NewPathTable(table))
	tracer := obs.NewTracer(4096)
	gw.SetTracer(tracer)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return loadgen.HTTPResult{}, nil, err
	}
	srv := httpfront.NewServer(gw)
	go srv.Serve(ln) //nolint:errcheck // closed via srv.Close below
	defer srv.Close()
	log.Printf("in-process gateway: http://%s over %d-node cluster", ln.Addr(), o.nodes)

	res, err := loadgen.ReplayHTTP("http://"+ln.Addr().String(), tr, loadgen.PathForFile, httpReplayConfig(o, tr))
	if err != nil {
		return res, nil, err
	}
	gs := gw.Stats()
	if cs, err := client.ClusterStats(); err == nil {
		rec.HitRate = cs.HitRate()
		rec.Local, rec.Remote, rec.Disk = cs.LocalHits, cs.RemoteHits, cs.DiskReads
	}
	return res, &gs, nil
}

// scrapeGatewayStats fetches an external gateway's /httpstats counters.
func scrapeGatewayStats(baseURL string) (httpfront.GatewayStats, error) {
	var s httpfront.GatewayStats
	resp, err := http.Get(baseURL + "/httpstats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("httpstats: status %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&s)
	return s, err
}

// gatewayDelta subtracts two counter snapshots taken around a replay.
func gatewayDelta(before, after httpfront.GatewayStats) httpfront.GatewayStats {
	return httpfront.GatewayStats{
		Requests:      after.Requests - before.Requests,
		Handoffs:      after.Handoffs - before.Handoffs,
		NotModified:   after.NotModified - before.NotModified,
		NotFound:      after.NotFound - before.NotFound,
		RangeRequests: after.RangeRequests - before.RangeRequests,
		Errors:        after.Errors - before.Errors,
		BytesServed:   after.BytesServed - before.BytesServed,
	}
}
