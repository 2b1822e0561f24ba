package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"os"

	"repro/internal/httpfront"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/trace"
)

// httpOpts carries the knobs of an HTTP replay (ccload -http-url).
type httpOpts struct {
	url         string // gateway base URL
	clf         string // Common Log Format access log ("" → synthetic trace)
	files       int
	avg         int64
	requests    int
	connections int
	zipf        float64
	seed        int64
	warmup      float64
}

// runHTTP replays a trace over HTTP — the full production path: keep-alive
// connections into a running httpfront gateway (ccnode -serve -http-addr),
// hand-off to home nodes, streaming reads out of the live cluster. It
// scrapes the gateway's /httpstats before and after and prints the delta
// as one "gateway:" line. Any failed request, any gateway error, or a
// gateway whose counters cannot be read fails the run.
func runHTTP(o httpOpts) error {
	tr, err := httpTrace(o)
	if err != nil {
		return err
	}
	cfg := loadgen.HTTPConfig{Connections: o.connections, WarmupFrac: o.warmup}
	if o.clf != "" && o.requests > 0 && o.requests < len(tr.Requests) {
		cfg.MaxRequests = o.requests
	}

	before, err := scrapeGatewayStats(o.url)
	if err != nil {
		return fmt.Errorf("gateway stats: %w", err)
	}
	res, err := loadgen.ReplayHTTP(o.url, tr, loadgen.PathForFile, cfg)
	if err != nil {
		return fmt.Errorf("http replay: %w", err)
	}
	fmt.Println(res)
	after, err := scrapeGatewayStats(o.url)
	if err != nil {
		return fmt.Errorf("gateway stats: %w", err)
	}
	gw := obs.Delta(after, before)
	fmt.Printf("gateway: %s\n", obs.Pairs(gw))
	if gw.Errors != 0 {
		return fmt.Errorf("gateway counted %d errors during the replay", gw.Errors)
	}
	return nil
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
