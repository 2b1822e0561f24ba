// Command ccload replays a web trace against a live middleware cluster and
// reports throughput, latency percentiles, and cluster cache behaviour —
// the real-deployment counterpart of the simulator experiments.
//
// Three modes:
//
//	# drive an already-running cluster (see cmd/ccnode -serve)
//	ccload -cluster 127.0.0.1:7000,127.0.0.1:7001 -files 100 -avg 16384 \
//	       -requests 20000 -concurrency 16
//
//	# self-contained: start an in-process cluster and drive it
//	ccload -selftest -nodes 4 -capacity 512 -requests 20000
//
//	# benchmark presets: replay fixed workloads against in-process
//	# clusters and write BENCH_live.json (req/s, MB/s, latency percentiles)
//	ccload -bench
//
//	# chaos scenario: crash one node of four mid-replay under a seeded
//	# fault plan; the run must finish with zero client-visible errors and
//	# records the fault-handling counters into BENCH_live.json
//	ccload -chaos
//
//	# HTTP mode: replay over the full production path (keep-alive HTTP into
//	# an httpfront gateway that streams out of the cluster); in-process by
//	# default, or against a running gateway (ccnode -serve -http-addr)
//	ccload -http -connections 256 -requests 20000
//	ccload -http -http-url http://127.0.0.1:8080 -connections 10000 -requests 100000
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/middleware"
	"repro/internal/obs"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ccload: ")
	var (
		cluster     = flag.String("cluster", "", "comma-separated node addresses of a running cluster")
		selftest    = flag.Bool("selftest", false, "start an in-process cluster instead")
		bench       = flag.Bool("bench", false, "run the benchmark presets and write -benchout")
		chaos       = flag.Bool("chaos", false, "run the node-crash chaos scenario and record it in -benchout")
		resize      = flag.Bool("resize", false, "run the elastic-membership resize scenario (grow 4→8 mid-replay, drain back to 4) and record it in -benchout")
		writesBench = flag.Bool("writesbench", false, "run the write-latency pair (invalidation bus, healthy and with one slow peer) and record it in -benchout")
		scenario    = flag.String("scenario", "", "run one named protocol scenario with its expected-counter signature, or 'all' (full_hit, partial_hit, cold_miss, write_invalidate, flash_crowd, node_drain)")
		httpMode    = flag.Bool("http", false, "replay over HTTP through an httpfront gateway and record the 'http' section in -benchout")
		httpURL     = flag.String("http-url", "", "http mode: drive this running gateway (ccnode -serve -http-addr) instead of an in-process one; /httpstats is scraped for hand-off counters")
		connections = flag.Int("connections", 256, "http mode: concurrent keep-alive connections (closed-loop clients)")
		clfPath     = flag.String("clf", "", "http mode: replay this Common Log Format access log instead of the synthetic trace")
		benchOut    = flag.String("benchout", "BENCH_live.json", "benchmark result path (bench mode)")
		nNodes      = flag.Int("nodes", 4, "selftest cluster size")
		capacity    = flag.Int("capacity", 1024, "selftest per-node cache capacity in blocks")
		files       = flag.Int("files", 100, "synthetic file count (must match the running cluster's)")
		avg         = flag.Int64("avg", 16384, "synthetic average file size (must match the running cluster's)")
		requests    = flag.Int("requests", 10000, "requests to replay (also scales bench presets)")
		concurrency = flag.Int("concurrency", 16, "closed-loop clients")
		warmup      = flag.Float64("warmup", 0.3, "warmup fraction")
		writeFrac   = flag.Float64("writes", 0, "fraction of operations that are block writes")
		zipf        = flag.Float64("zipf", 0.85, "popularity skew of the replayed stream")
		zipfS       = flag.Float64("zipf-s", 0, "override the Zipf exponent everywhere, bench presets included (0: use -zipf / preset values)")
		seed        = flag.Int64("seed", 1, "workload seed")
		interval    = flag.Duration("interval", 0, "time-series bucket width (0: 1s, 250ms in bench/chaos mode; negative: no time series)")
		traceDump   = flag.Bool("trace-dump", false, "after the replay, dump each node's protocol event trace as JSON (nodes must run with tracing on; -selftest attaches tracers)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the run to this path")
		mtxProfile  = flag.String("mutexprofile", "", "write a mutex-contention profile of the run to this path (bench mode: where the store shards pay off)")
		blkProfile  = flag.String("blockprofile", "", "write a blocking profile of the run to this path")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	defer obs.ContentionProfiles(*mtxProfile, *blkProfile)()

	if *bench {
		if err := runBench(*benchOut, *requests, *concurrency, *seed, benchInterval(*interval), *zipfS); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *chaos {
		if err := runChaos(*benchOut, *requests, *concurrency, *seed, benchInterval(*interval)); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *resize {
		if err := runResize(*benchOut, *requests, *concurrency, *seed, benchInterval(*interval)); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *writesBench {
		if err := runWritesBench(*benchOut, *requests, *concurrency, *seed, benchInterval(*interval)); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *scenario != "" {
		if err := runScenarios(*scenario, *requests, *concurrency, *seed); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *httpMode {
		alpha := *zipf
		if *zipfS > 0 {
			alpha = *zipfS
		}
		err := runHTTP(httpOpts{
			out:         *benchOut,
			url:         *httpURL,
			clf:         *clfPath,
			nodes:       *nNodes,
			capacity:    *capacity,
			files:       *files,
			avg:         *avg,
			requests:    *requests,
			connections: *connections,
			zipf:        alpha,
			seed:        *seed,
			warmup:      *warmup,
			interval:    *interval,
		})
		if err != nil {
			log.Fatal(err)
		}
		return
	}

	sizes := fileSizes(*files, *avg)
	alpha := *zipf
	if *zipfS > 0 {
		alpha = *zipfS
	}

	var addrs []string
	var shutdown func()
	switch {
	case *selftest:
		mut := func(i int, cfg *middleware.Config) {
			if *traceDump {
				cfg.Tracer = obs.NewTracer(0)
			}
		}
		var err error
		_, addrs, shutdown, err = startCluster(*nNodes, *capacity, sizes, mut)
		if err != nil {
			log.Fatal(err)
		}
		defer shutdown()
		log.Printf("selftest cluster: %v", addrs)
	case *cluster != "":
		for _, a := range strings.Split(*cluster, ",") {
			addrs = append(addrs, strings.TrimSpace(a))
		}
	default:
		log.Fatal("need -cluster, -selftest, or -bench")
	}

	client, err := middleware.DialCluster(addrs)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	res, err := loadgen.Replay(client, buildTrace(*files, sizes, *requests, alpha, *avg, *seed), loadgen.Config{
		Concurrency: *concurrency,
		WarmupFrac:  *warmup,
		WriteFrac:   *writeFrac,
		Interval:    *interval,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res)
	if *traceDump {
		dumpTraces(client, len(addrs))
	}
}

// benchInterval applies the bench/chaos-mode default bucket width.
func benchInterval(flagged time.Duration) time.Duration {
	if flagged == 0 {
		return 250 * time.Millisecond
	}
	return flagged
}

// dumpTraces fetches every node's protocol event trace over the trace RPC
// and prints them as JSON lines.
func dumpTraces(client *middleware.Client, nNodes int) {
	enc := json.NewEncoder(os.Stdout)
	for i := 0; i < nNodes; i++ {
		d, err := client.NodeTrace(i)
		if err != nil {
			log.Printf("trace dump node %d: %v", i, err)
			continue
		}
		log.Printf("node %d: %d trace events retained (%d recorded)", i, len(d.Events), d.Total)
		if err := enc.Encode(d); err != nil {
			log.Printf("trace dump node %d: %v", i, err)
		}
	}
}

// fileSizes builds the deterministic synthetic file manifest shared by every
// mode (and by any separately started ccnode cluster with matching flags).
func fileSizes(files int, avg int64) map[block.FileID]int64 {
	sizes := make(map[block.FileID]int64, files)
	for f := 0; f < files; f++ {
		sizes[block.FileID(f)] = avg/2 + int64(f%7)*(avg/7)
	}
	return sizes
}

// startCluster brings up an in-process cluster and returns its nodes,
// addresses, and a shutdown function. mut, when non-nil, adjusts each
// node's Config before start (chaos mode sets fault plans and timeouts).
func startCluster(nNodes, capacity int, sizes map[block.FileID]int64,
	mut func(i int, cfg *middleware.Config)) ([]*middleware.Node, []string, func(), error) {
	nodes := make([]*middleware.Node, 0, nNodes)
	addrs := make([]string, 0, nNodes)
	shutdown := func() {
		for _, n := range nodes {
			n.Close()
		}
	}
	for i := 0; i < nNodes; i++ {
		cfg := middleware.Config{
			ID: i, CapacityBlocks: capacity,
			Policy: core.PolicyMaster,
			Source: middleware.NewMemSource(block.DefaultGeometry, sizes),
		}
		if mut != nil {
			mut(i, &cfg)
		}
		n, err := middleware.Start(cfg)
		if err != nil {
			shutdown()
			return nil, nil, nil, err
		}
		nodes = append(nodes, n)
		addrs = append(addrs, n.Addr())
	}
	for _, n := range nodes {
		n.SetAddrs(addrs)
	}
	return nodes, addrs, shutdown, nil
}

// buildTrace generates the replay stream over the cluster's file set.
func buildTrace(files int, sizes map[block.FileID]int64, requests int, zipf float64, avg, seed int64) *trace.Trace {
	preset := trace.Preset{
		Name:         "ccload",
		NumFiles:     files,
		FileSetBytes: totalBytes(sizes),
		NumRequests:  requests,
		AvgReqKB:     float64(avg) / 1024, // neutral: no size-popularity bias target
		Alpha:        zipf,
		SizeSigma:    0.01,
	}
	gen := preset.Generate(seed, 1.0)
	// Replace generated sizes with the cluster's actual manifest (the
	// generator produced a same-shape stream; only IDs matter here).
	tr := &trace.Trace{Name: "ccload", Requests: gen.Requests}
	for f := 0; f < files; f++ {
		tr.Files = append(tr.Files, trace.File{ID: block.FileID(f), Size: sizes[block.FileID(f)]})
	}
	return tr
}

func totalBytes(sizes map[block.FileID]int64) int64 {
	var sum int64
	for _, s := range sizes {
		sum += s
	}
	return sum
}

// --- benchmark presets ---

// benchPreset is one fixed live-cluster workload.
type benchPreset struct {
	Name      string  `json:"name"`
	Nodes     int     `json:"nodes"`
	Capacity  int     `json:"capacity_blocks"`
	Files     int     `json:"files"`
	AvgSize   int64   `json:"avg_file_bytes"`
	Zipf      float64 `json:"zipf"`
	WriteFrac float64 `json:"write_frac"`
}

// benchRecord is one preset's measured outcome, serialized to BENCH_live.json.
type benchRecord struct {
	benchPreset
	Requests  int     `json:"requests"`
	Writes    int     `json:"writes"`
	Errors    int     `json:"errors"`
	Bytes     int64   `json:"bytes"`
	ElapsedMS float64 `json:"elapsed_ms"`
	ReqPerSec float64 `json:"req_per_sec"`
	MBPerSec  float64 `json:"mb_per_sec"`
	MeanUS    float64 `json:"mean_us"`
	P50US     float64 `json:"p50_us"`
	P95US     float64 `json:"p95_us"`
	P99US     float64 `json:"p99_us"`
	HitRate   float64 `json:"hit_rate"`
	Local     uint64  `json:"local_hits"`
	Remote    uint64  `json:"remote_hits"`
	Disk      uint64  `json:"disk_reads"`
	Forwards  uint64  `json:"forwards"`
	// WriteP50US/WriteP99US are the write-only latency percentiles (set when
	// the preset replays writes); SlowPeer marks the degraded arm of a
	// ccload -writesbench run. InvalBatched/InvalCatchups count the
	// invalidation bus's batched deliveries and gap repairs.
	WriteP50US    float64 `json:"write_p50_us,omitempty"`
	WriteP99US    float64 `json:"write_p99_us,omitempty"`
	SlowPeer      bool    `json:"slow_peer,omitempty"`
	InvalBatched  uint64  `json:"inval_batched,omitempty"`
	InvalCatchups uint64  `json:"inval_catchups,omitempty"`
	// Runs/RunsDegraded count the run fetches the cluster issued and how
	// many fell back to per-block repair.
	Runs         uint64 `json:"runs_issued"`
	RunsDegraded uint64 `json:"runs_degraded"`
	faultCounters
	// Intervals is the measured window's per-interval time series (req/s,
	// MB/s, latency percentiles, client fault deltas per bucket).
	Intervals []loadgen.Interval `json:"intervals,omitempty"`
}

// faultCounters are the fault-handling counters shared by the benchmark and
// chaos records (zero on healthy runs; the chaos scenario requires most of
// them nonzero).
type faultCounters struct {
	RPCTimeouts     uint64 `json:"rpc_timeouts"`
	RPCRetries      uint64 `json:"rpc_retries"`
	RPCFailures     uint64 `json:"rpc_failures"`
	BreakerOpens    uint64 `json:"breaker_opens"`
	BreakerSkips    uint64 `json:"breaker_skips"`
	HomeFallbacks   uint64 `json:"home_fallbacks"`
	StaleDrops      uint64 `json:"stale_drops"`
	InvalidateSkips uint64 `json:"invalidate_skips"`
	ClientTimeouts  uint64 `json:"client_timeouts"`
	ClientFailovers uint64 `json:"client_failovers"`
	ClientSkips     uint64 `json:"client_breaker_skips"`
}

// faultCountersOf collects the counters from a replay result.
func faultCountersOf(res loadgen.Result) faultCounters {
	c := res.Cluster
	return faultCounters{
		RPCTimeouts:     c.RPCTimeouts,
		RPCRetries:      c.RPCRetries,
		RPCFailures:     c.RPCFailures,
		BreakerOpens:    c.BreakerOpens,
		BreakerSkips:    c.BreakerSkips,
		HomeFallbacks:   c.HomeFallbacks,
		StaleDrops:      c.StaleDrops,
		InvalidateSkips: c.InvalidateSkips,
		ClientTimeouts:  res.Fault.Timeouts,
		ClientFailovers: res.Fault.Failovers,
		ClientSkips:     res.Fault.BreakerSkips,
	}
}

// chaosRecord is the chaos scenario's outcome, stored beside the presets in
// the benchmark document.
type chaosRecord struct {
	Nodes     int     `json:"nodes"`
	CrashNode int     `json:"crash_node"`
	Seed      int64   `json:"seed"`
	Requests  int     `json:"requests"`
	Writes    int     `json:"writes"`
	Errors    int     `json:"errors"`
	ElapsedMS float64 `json:"elapsed_ms"`
	ReqPerSec float64 `json:"req_per_sec"`
	P50US     float64 `json:"p50_us"`
	P95US     float64 `json:"p95_us"`
	P99US     float64 `json:"p99_us"`
	// Runs/RunsDegraded count run fetches issued and degraded during the
	// storm — degradations are expected here (the crashed node's runs fall
	// back per-block), never errors.
	Runs         uint64 `json:"runs_issued"`
	RunsDegraded uint64 `json:"runs_degraded"`
	// The membership layer's response to the crash: failed heartbeat
	// probes, the epoch after the dead promotion, and the blocks the
	// survivors pulled while re-homing the dead node's ring slice.
	HeartbeatFailures uint64 `json:"heartbeat_failures"`
	MembershipEpoch   uint64 `json:"membership_epoch"`
	RebalancedBlocks  uint64 `json:"rebalanced_blocks"`
	faultCounters
	// Intervals localizes the crash in time: the buckets around the crash
	// show the latency spike and the fault-counter deltas of the recovery.
	Intervals []loadgen.Interval `json:"intervals,omitempty"`
	// TraceEvents counts the protocol trace events recorded across the
	// cluster during the run, by kind; TraceTotal is their sum (events the
	// rings overwrote included). Correlates with the fault counters: e.g.
	// breaker_open events ≈ BreakerOpens.
	TraceEvents map[string]uint64 `json:"trace_events,omitempty"`
	TraceTotal  uint64            `json:"trace_total,omitempty"`
}

// benchDoc is the BENCH_live.json document. Bench and chaos runs each
// rewrite their own section and preserve the others'.
type benchDoc struct {
	Generated string `json:"generated"`
	// GoMaxProcs/NumCPU/GoVersion record the machine behind the numbers:
	// contention-sensitive results (the sharded store, writev batching) are
	// only comparable between runs at equal NumCPU, and the 1-CPU CI
	// container legitimately reports lower throughput than a dev box.
	GoMaxProcs int           `json:"gomaxprocs"`
	NumCPU     int           `json:"num_cpu"`
	GoVersion  string        `json:"go_version"`
	Requests   int           `json:"requests_per_preset"`
	Presets    []benchRecord `json:"presets"`
	// Writes is the write-latency pair (ccload -writesbench): the
	// invalidation bus healthy and with one slow peer, on a write-heavy
	// preset. The slow arm is the bus's reason to exist — the slow peer's
	// delay must vanish from the writer's percentiles.
	Writes []benchRecord `json:"writes,omitempty"`
	Chaos  *chaosRecord  `json:"chaos,omitempty"`
	// Resize is the elastic-membership scenario (ccload -resize): the
	// cluster grows 4→8 mid-replay and drains back to 4, with zero
	// client-visible errors and the hit-rate dip localized in Intervals.
	Resize *resizeRecord `json:"resize,omitempty"`
	// HTTP is the end-to-end serving-path replay (ccload -http): keep-alive
	// HTTP connections into an httpfront gateway streaming out of the
	// cluster, with the gateway's hand-off counters alongside.
	HTTP *httpRecord `json:"http,omitempty"`
}

// loadBenchDoc reads an existing benchmark document; a missing or
// unparsable file yields an empty one.
func loadBenchDoc(path string) benchDoc {
	var doc benchDoc
	if data, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(data, &doc)
	}
	return doc
}

func writeBenchDoc(path string, doc benchDoc) error {
	doc.Generated = time.Now().UTC().Format(time.RFC3339)
	doc.GoMaxProcs = runtime.GOMAXPROCS(0)
	doc.NumCPU = runtime.NumCPU()
	doc.GoVersion = runtime.Version()
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	log.Printf("wrote %s", path)
	return nil
}

// benchPresets are the standing live-cluster benchmarks. All use a four-node
// cluster; the capacity is chosen so the aggregate cache holds the working
// set while a single node's cache cannot — the regime where cooperation pays
// (the paper's §4 configuration, scaled down to benchmark duration).
var benchPresets = []benchPreset{
	{Name: "read-central-4node", Nodes: 4, Capacity: 512, Files: 200, AvgSize: 16384, Zipf: 0.85},
	{Name: "mixed-writes-4node", Nodes: 4, Capacity: 512, Files: 200, AvgSize: 16384, Zipf: 0.85, WriteFrac: 0.05},
}

// runBench replays every preset against a fresh in-process cluster and
// writes the results to out. zipfS > 0 overrides every preset's skew.
func runBench(out string, requests, concurrency int, seed int64, interval time.Duration, zipfS float64) error {
	records := make([]benchRecord, 0, len(benchPresets))
	for _, p := range benchPresets {
		if zipfS > 0 {
			p.Zipf = zipfS
		}
		sizes := fileSizes(p.Files, p.AvgSize)
		_, addrs, shutdown, err := startCluster(p.Nodes, p.Capacity, sizes, nil)
		if err != nil {
			return fmt.Errorf("preset %s: %w", p.Name, err)
		}
		client, err := middleware.DialCluster(addrs)
		if err != nil {
			shutdown()
			return fmt.Errorf("preset %s: %w", p.Name, err)
		}
		tr := buildTrace(p.Files, sizes, requests, p.Zipf, p.AvgSize, seed)
		res, err := loadgen.Replay(client, tr, loadgen.Config{
			Concurrency: concurrency,
			WriteFrac:   p.WriteFrac,
			Interval:    interval,
		})
		client.Close()
		shutdown()
		if err != nil {
			return fmt.Errorf("preset %s: %w", p.Name, err)
		}
		rec := recordOf(p, res)
		records = append(records, rec)
		log.Printf("%-20s %8.0f req/s %7.1f MB/s p50=%v p95=%v p99=%v hit=%.1f%%",
			p.Name, rec.ReqPerSec, rec.MBPerSec,
			res.P50.Round(time.Microsecond), res.P95.Round(time.Microsecond),
			res.P99.Round(time.Microsecond), rec.HitRate*100)
	}
	doc := loadBenchDoc(out)
	doc.Requests = requests
	doc.Presets = records
	return writeBenchDoc(out, doc)
}

// recordOf maps one replay result onto the serialized benchmark record.
func recordOf(p benchPreset, res loadgen.Result) benchRecord {
	rec := benchRecord{
		benchPreset:   p,
		Requests:      res.Requests,
		Writes:        res.Writes,
		Errors:        res.Errors,
		Bytes:         res.Bytes,
		ElapsedMS:     float64(res.Elapsed) / float64(time.Millisecond),
		ReqPerSec:     res.Throughput,
		MBPerSec:      res.MBps,
		MeanUS:        float64(res.Mean) / float64(time.Microsecond),
		P50US:         float64(res.P50) / float64(time.Microsecond),
		P95US:         float64(res.P95) / float64(time.Microsecond),
		P99US:         float64(res.P99) / float64(time.Microsecond),
		HitRate:       res.Cluster.HitRate(),
		Local:         res.Cluster.LocalHits,
		Remote:        res.Cluster.RemoteHits,
		Disk:          res.Cluster.DiskReads,
		Forwards:      res.Cluster.Forwards,
		Runs:          res.Cluster.RunsIssued,
		RunsDegraded:  res.Cluster.RunsDegraded,
		WriteP50US:    float64(res.WriteP50) / float64(time.Microsecond),
		WriteP99US:    float64(res.WriteP99) / float64(time.Microsecond),
		InvalBatched:  res.Cluster.InvalBatched,
		InvalCatchups: res.Cluster.InvalCatchups,
		Intervals:     res.Intervals,
	}
	rec.faultCounters = faultCountersOf(res)
	return rec
}

// --- chaos scenario ---

// runChaos replays a read-heavy trace against a four-node ring cluster
// under a seeded fault plan (small injected delays) and crashes one node
// halfway through the replay. The cluster is sized so no single node holds
// the working set — the crashed node holds master copies other nodes
// depend on, which is exactly what the fallback path must absorb. Nothing
// is excluded from the trace: requests for files homed at the crashed node
// are first bridged by the ring-successor fallback, then the survivors'
// heartbeats promote the crash to dead and re-home its ring slice for
// good. The run must finish with zero client-visible errors, and the
// fault-handling and membership counters it records must be nonzero.
func runChaos(out string, requests, concurrency int, seed int64, interval time.Duration) error {
	const (
		nNodes    = 4
		crashNode = nNodes - 1 // never the coordinator (lowest alive ID)
		capacity  = 128        // << working set: cooperation (and peer fetches) required
		files     = 200
		avgSize   = 16384
	)
	// Delays model a congested link; the drop rate is low enough that a
	// client-visible failure would need a same-request drop streak across
	// every node-side retry AND every client failover (p ≈ 1e-12), but
	// high enough that a run reliably exercises the timeout+retry path —
	// the crash alone produces fast connection resets, not timeouts.
	plan := &middleware.FaultPlan{
		Seed:      seed,
		DelayProb: 0.05,
		Delay:     500 * time.Microsecond,
		DropProb:  0.004,
	}
	sizes := fileSizes(files, avgSize)
	// Each node gets a protocol tracer: after the run the event counts are
	// recorded beside the fault counters (and stay readable even for the
	// crashed node, whose tracer outlives its sockets in-process).
	tracers := make([]*obs.Tracer, nNodes)
	nodes, addrs, shutdown, err := startCluster(nNodes, capacity, sizes,
		func(i int, cfg *middleware.Config) {
			cfg.Fault = plan
			cfg.RPCTimeout = 300 * time.Millisecond
			cfg.Retries = 2
			// Aggressive heartbeats so the crash is suspected and promoted
			// to dead well inside the replay (the successor fallback covers
			// the window in between). DeadTimeout must comfortably exceed
			// the RPC timeout: under injected delays a live peer's probe can
			// pay the full timeout, and dead is terminal — only the truly
			// crashed node may cross the threshold.
			cfg.HeartbeatInterval = 25 * time.Millisecond
			cfg.SuspectTimeout = 100 * time.Millisecond
			cfg.DeadTimeout = time.Second
			tracers[i] = obs.NewTracer(0)
			cfg.Tracer = tracers[i]
		})
	if err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	defer shutdown()
	client, err := middleware.DialClusterConfig(addrs, middleware.ClientConfig{
		RPCTimeout: 2 * time.Second,
		Retries:    3,
	})
	if err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	defer client.Close()

	// The whole trace replays — files homed at the crashed node included.
	// Their reads ride the ring-successor fallback until the heartbeat
	// layer promotes the crash to dead and re-homes the slice (every node's
	// source holds the full manifest, so the successor serves from its own
	// baseline when the dead home can't be pulled from).
	tr := buildTrace(files, sizes, requests, 0.85, avgSize, seed)

	crashAt := len(tr.Requests) / 2
	log.Printf("chaos: %d nodes, crashing node %d at request %d/%d (seed %d)",
		nNodes, crashNode, crashAt, len(tr.Requests), seed)
	res, err := loadgen.Replay(client, tr, loadgen.Config{
		Concurrency: concurrency,
		WarmupFrac:  0.1,
		WriteFrac:   0.05,
		Interval:    interval,
		Breakpoint:  crashAt,
		OnBreakpoint: func() {
			log.Printf("chaos: crashing node %d", crashNode)
			nodes[crashNode].Close()
		},
	})
	if err != nil {
		return fmt.Errorf("chaos: client-visible failure: %w", err)
	}
	fmt.Println(res)

	fc := faultCountersOf(res)
	if fc.RPCTimeouts+fc.BreakerSkips+fc.HomeFallbacks == 0 {
		return fmt.Errorf("chaos: crash produced no node-side fault events — the scenario did not exercise the fallback path")
	}
	if fc.ClientFailovers == 0 {
		return fmt.Errorf("chaos: no client failovers recorded — entry-node failover was not exercised")
	}
	if res.Cluster.HeartbeatFailures == 0 {
		return fmt.Errorf("chaos: no heartbeat failures recorded around a crash — the failure detector never fired")
	}
	if res.Cluster.MembershipEpoch < 2 {
		return fmt.Errorf("chaos: membership epoch %d — the crash was never promoted to dead", res.Cluster.MembershipEpoch)
	}

	traceEvents := make(map[string]uint64)
	var traceTotal uint64
	for _, t := range tracers {
		for _, e := range t.Events() {
			traceEvents[e.Kind]++
		}
		traceTotal += t.Total()
	}
	log.Printf("chaos: %d trace events recorded across the cluster: %v", traceTotal, traceEvents)

	doc := loadBenchDoc(out)
	doc.Chaos = &chaosRecord{
		Nodes:     nNodes,
		CrashNode: crashNode,
		Seed:      seed,
		Requests:  res.Requests,
		Writes:    res.Writes,
		Errors:    res.Errors,
		ElapsedMS: float64(res.Elapsed) / float64(time.Millisecond),
		ReqPerSec: res.Throughput,
		P50US:     float64(res.P50) / float64(time.Microsecond),
		P95US:     float64(res.P95) / float64(time.Microsecond),
		P99US:     float64(res.P99) / float64(time.Microsecond),

		Runs:         res.Cluster.RunsIssued,
		RunsDegraded: res.Cluster.RunsDegraded,

		HeartbeatFailures: res.Cluster.HeartbeatFailures,
		MembershipEpoch:   res.Cluster.MembershipEpoch,
		RebalancedBlocks:  res.Cluster.RebalancedBlocks,

		faultCounters: fc,
		Intervals:     res.Intervals,
		TraceEvents:   traceEvents,
		TraceTotal:    traceTotal,
	}
	return writeBenchDoc(out, doc)
}

// --- write-latency pair ---

// writesPreset is the write-heavy workload of the invalidation-bus pair: a
// four-node cluster where every fourth request is a block write, the
// regime where write latency is the product.
var writesPreset = benchPreset{
	Name: "writes-25pct-4node", Nodes: 4, Capacity: 512,
	Files: 200, AvgSize: 16384, Zipf: 0.85, WriteFrac: 0.25,
}

const (
	// writesSlowNode is the degraded peer of the slow arms. It is not an
	// entry node and homes no replayed file, so its delay can reach the
	// writer's latency only through the invalidation protocol.
	writesSlowNode   = 3
	writesRPCTimeout = 300 * time.Millisecond
	writesSlowDelay  = writesRPCTimeout / 2
)

// runWritesBench measures the same write-heavy replay with every peer
// healthy and with one slow peer, and records both in the document's writes
// section. The pair is the bus's acceptance test: with a peer delaying every
// frame by half the RPC timeout, the write tail must stay within sight of
// healthy. (A blocking fan-out absorbs the delay wholesale: the PR 7 table
// in DESIGN.md.)
func runWritesBench(out string, requests, concurrency int, seed int64, interval time.Duration) error {
	healthy, err := runWritesArm(requests, concurrency, seed, interval, false)
	if err != nil {
		return err
	}
	slow, err := runWritesArm(requests, concurrency, seed, interval, true)
	if err != nil {
		return err
	}
	if healthy.WriteP99US > 0 {
		log.Printf("writes: write p99 healthy=%.0fµs slow-peer=%.0fµs (%.1fx)",
			healthy.WriteP99US, slow.WriteP99US, slow.WriteP99US/healthy.WriteP99US)
	}
	doc := loadBenchDoc(out)
	doc.Writes = []benchRecord{healthy, slow}
	return writeBenchDoc(out, doc)
}

// runWritesArm replays the writes preset once against a fresh cluster with
// the given peer health.
func runWritesArm(requests, concurrency int, seed int64, interval time.Duration, slow bool) (benchRecord, error) {
	p := writesPreset
	plan := &middleware.FaultPlan{Seed: seed, DelayProb: 1, Delay: writesSlowDelay}
	mut := func(i int, cfg *middleware.Config) {
		// The manifest filter below excludes the slow peer's homed files by
		// modulo: pin the static placement so the filter stays exact.
		cfg.StaticHome = true
		cfg.RPCTimeout = writesRPCTimeout
		cfg.Retries = 2
		if slow && i == writesSlowNode {
			cfg.Fault = plan
		}
	}
	sizes := fileSizes(p.Files, p.AvgSize)
	_, addrs, shutdown, err := startCluster(p.Nodes, p.Capacity, sizes, mut)
	if err != nil {
		return benchRecord{}, fmt.Errorf("writes bench: %w", err)
	}
	defer shutdown()
	// Entry nodes exclude the slow peer, and so does the file manifest of
	// the replay (its homed files would put the delay on the write-through
	// path, which no invalidation protocol can take off the writer).
	client, err := middleware.DialClusterConfig(addrs[:writesSlowNode], middleware.ClientConfig{
		RPCTimeout: 2 * time.Second,
		Retries:    3,
	})
	if err != nil {
		return benchRecord{}, fmt.Errorf("writes bench: %w", err)
	}
	defer client.Close()
	tr := buildTrace(p.Files, sizes, requests, p.Zipf, p.AvgSize, seed)
	kept := tr.Requests[:0]
	for _, f := range tr.Requests {
		if int(f)%p.Nodes != writesSlowNode {
			kept = append(kept, f)
		}
	}
	tr.Requests = kept
	res, err := loadgen.Replay(client, tr, loadgen.Config{
		Concurrency: concurrency,
		WriteFrac:   p.WriteFrac,
		Interval:    interval,
	})
	if err != nil {
		return benchRecord{}, fmt.Errorf("writes bench: %w", err)
	}
	rec := recordOf(p, res)
	rec.SlowPeer = slow
	health := "healthy"
	if slow {
		health = "slow-peer"
	}
	log.Printf("%-20s %-9s %8.0f req/s write_p50=%v write_p99=%v p99=%v skips=%d batched=%d",
		p.Name, health, rec.ReqPerSec,
		res.WriteP50.Round(time.Microsecond), res.WriteP99.Round(time.Microsecond),
		res.P99.Round(time.Microsecond), rec.InvalidateSkips, rec.InvalBatched)
	return rec, nil
}
