package main

import (
	"encoding/json"
	"strings"
)

// metricDef names one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before it is a
// regression; per-layer metrics have none, and BENCHMARK.json omits it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// runSeconds is the length of the measured window the driver asks for.
const runSeconds = 15

// endToEnd is what a user of the cluster sees, measured with tracing off.
// Every metric is defined and non-zero on every workload; failures travel
// in the result's attempted and failed counts. The tail is the 95th
// percentile because on http_get about 1 % of reads stall for one 4 ms
// scheduler tick and the 99th sits on that cliff (gen.read_p99_us and
// gen.read_p999_us keep it visible in the traced run).
//
// Each bound is three times the widest run-to-run spread (quartile distance
// over median of ten seeds) the metric showed on any workload, capped at
// the 0.25 the driver allows. On the 2-vCPU shared host this was built on,
// the five metrics that depend on CPU speed spread by up to 17 % (3x = 52 %,
// so the cap) and rss_mb by up to 3.8 % (3x = 11 %, rounded up). README.md
// has the sets; on a quiet machine, measure again and tighten.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "req_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "read_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "read_p95_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_req", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// perLayer is the traced run's table, grouped by the module each metric
// watches.
var perLayer = layerDefs()

func layerDefs() []metricDef {
	lower, higher := "lower", "higher"
	defs := []metricDef{
		{"httpfront.serve_us_p50", "us", lower, 0},
		{"httpfront.serve_us_p99", "us", lower, 0},
		{"httpfront.socket_self_us_p50", "us", lower, 0},
		{"httpfront.handoff_ratio", "ratio", higher, 0},
		{"httpfront.bytes_per_req", "B", lower, 0},

		{"client.rpcs_per_req", "count", lower, 0},
		{"client.read_range_rpcs_per_req", "count", lower, 0},
		{"client.rpc_us_p50", "us", lower, 0},
		{"client.failovers", "count", lower, 0},
		{"client.timeouts", "count", lower, 0},

		{"node.accesses_per_req", "count", lower, 0},
		{"node.local_hit_ratio", "ratio", higher, 0},
		{"node.remote_hit_ratio", "ratio", lower, 0},
		{"node.disk_ratio", "ratio", lower, 0},
		{"node.race_misses_per_kreq", "count", lower, 0},
		{"node.runs_issued_per_req", "count", lower, 0},
		{"node.runs_degraded_ratio", "ratio", lower, 0},

		{"dir.lookup_rpcs_per_req", "count", lower, 0},
		{"dir.update_rpcs_per_req", "count", lower, 0},
		{"dir.lookup_us_p50", "us", lower, 0},
		{"dir.lookup_us_p99", "us", lower, 0},

		{"peer.get_run_us_p50", "us", lower, 0},
		{"peer.get_run_us_p99", "us", lower, 0},
		{"peer.get_block_us_p50", "us", lower, 0},
		{"peer.rpcs_per_req", "count", lower, 0},
		{"peer.timeouts", "count", lower, 0},
		{"peer.retries", "count", lower, 0},
		{"peer.failures", "count", lower, 0},
		{"peer.home_fallbacks", "count", lower, 0},
		{"peer.stale_drops", "count", lower, 0},

		{"store.forwards_per_kreq", "count", lower, 0},
		{"store.forward_reject_ratio", "ratio", lower, 0},
		{"store.fill_ratio", "ratio", higher, 0},
		{"store.master_ratio", "ratio", higher, 0},

		{"source.reads_per_kreq", "count", lower, 0},
		{"source.writes_per_kreq", "count", lower, 0},
		{"source.read_us_p50", "us", lower, 0},
		{"source.busy_ms_per_s", "ms/s", lower, 0},
		{"source.distinct_ratio", "ratio", higher, 0},

		{"inval.write_us_p50", "us", lower, 0},
		{"inval.write_us_p99", "us", lower, 0},
		{"inval.write_rpc_us_p50", "us", lower, 0},
		{"inval.invalidations_per_write", "count", lower, 0},
		{"inval.batched_per_write", "count", lower, 0},
		{"inval.catchups", "count", lower, 0},
		{"inval.backlog_max", "count", lower, 0},
		{"inval.flush_ms", "ms", lower, 0},
		{"inval.stale_after_flush", "count", lower, 0},

		{"proc.cpu_user_share", "ratio", higher, 0},
		{"proc.allocs_per_req", "count", lower, 0},
		{"proc.alloc_kb_per_req", "KB", lower, 0},
		{"proc.gc_pause_ms_per_s", "ms/s", lower, 0},
		{"proc.goroutines", "count", lower, 0},

		{"gen.read_p99_us", "us", lower, 0},
		{"gen.read_p999_us", "us", lower, 0},
		{"gen.trace_overhead_ratio", "ratio", higher, 0},
	}
	for _, name := range ladderRungs {
		defs = append(defs,
			metricDef{"ladder." + name + "_us", "us", lower, 0},
			metricDef{"ladder." + name + "_allocs", "count", lower, 0})
	}
	return defs
}

// manifest renders BENCHMARK.json from the tables above, so the file the
// driver reads cannot drift from what the program prints.
func manifest() ([]byte, error) {
	type namedWhy struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []namedWhy  `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, namedWhy{w.Name, w.Why})
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return nil, err
	}
	return []byte(b.String()), nil
}
