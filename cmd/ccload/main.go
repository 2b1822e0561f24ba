// Command ccload replays a web trace against a live middleware cluster and
// prints what the replay measured and what the cluster counted. The modes
// that check a contract exit non-zero when it fails; the performance record
// of the live path is benchmark/, not this tool.
//
//	# drive an already-running cluster (see cmd/ccnode -serve)
//	ccload -cluster 127.0.0.1:7000,127.0.0.1:7001 -files 100 -avg 16384 \
//	       -requests 20000 -concurrency 16
//
//	# self-contained: start an in-process cluster and drive it
//	ccload -selftest -nodes 4 -capacity 512 -requests 20000
//
//	# HTTP: replay keep-alive GETs into a running gateway
//	# (ccnode -serve -http-addr); fails on any failed request or gateway error
//	ccload -http-url http://127.0.0.1:8080 -connections 10000 -requests 100000
//
//	# contracts over in-process clusters: the counter-signature matrix, a
//	# node crash mid-replay, and a grow 4→8 / drain back to 4 mid-replay
//	ccload -scenario all
//	ccload -chaos
//	ccload -resize
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
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
		chaos       = flag.Bool("chaos", false, "run the node-crash chaos scenario and check its contract")
		resize      = flag.Bool("resize", false, "run the elastic-membership resize scenario (grow 4→8 mid-replay, drain back to 4) and check its contract")
		scenario    = flag.String("scenario", "", "run one named protocol scenario with its expected-counter signature, or 'all' (full_hit, partial_hit, cold_miss, write_invalidate, flash_crowd, node_drain)")
		httpURL     = flag.String("http-url", "", "replay over HTTP against this running gateway (ccnode -serve -http-addr); /httpstats is scraped for hand-off counters")
		connections = flag.Int("connections", 256, "http mode: concurrent keep-alive connections (closed-loop clients)")
		clfPath     = flag.String("clf", "", "http mode: replay this Common Log Format access log instead of the synthetic trace")
		nNodes      = flag.Int("nodes", 4, "selftest cluster size")
		capacity    = flag.Int("capacity", 1024, "selftest per-node cache capacity in blocks")
		files       = flag.Int("files", 100, "synthetic file count (must match the running cluster's)")
		avg         = flag.Int64("avg", 16384, "synthetic average file size (must match the running cluster's)")
		requests    = flag.Int("requests", 10000, "requests to replay")
		concurrency = flag.Int("concurrency", 16, "closed-loop clients")
		warmup      = flag.Float64("warmup", 0.3, "warmup fraction")
		writeFrac   = flag.Float64("writes", 0, "fraction of operations that are block writes")
		zipf        = flag.Float64("zipf", 0.85, "popularity skew of the replayed stream")
		seed        = flag.Int64("seed", 1, "workload seed")
		traceDump   = flag.Bool("trace-dump", false, "after the replay, dump each node's protocol event trace as JSON (nodes must run with tracing on; -selftest attaches tracers)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the run to this path")
		mtxProfile  = flag.String("mutexprofile", "", "write a mutex-contention profile of the run to this path")
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

	if *chaos {
		if err := runChaos(*requests, *concurrency, *seed); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *resize {
		if err := runResize(*requests, *concurrency, *seed); err != nil {
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
	if *httpURL != "" {
		err := runHTTP(httpOpts{
			url:         *httpURL,
			clf:         *clfPath,
			files:       *files,
			avg:         *avg,
			requests:    *requests,
			connections: *connections,
			zipf:        *zipf,
			seed:        *seed,
			warmup:      *warmup,
		})
		if err != nil {
			log.Fatal(err)
		}
		return
	}
	if *clfPath != "" {
		log.Fatal("-clf replays over HTTP and needs -http-url")
	}

	sizes := fileSizes(*files, *avg)
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
		log.Fatal("need -cluster, -selftest, -http-url, -scenario, -chaos or -resize")
	}

	client, err := middleware.DialCluster(addrs)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	res, err := loadgen.Replay(client, buildTrace(*files, sizes, *requests, *zipf, *avg, *seed), loadgen.Config{
		Concurrency: *concurrency,
		WarmupFrac:  *warmup,
		WriteFrac:   *writeFrac,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res)
	if *traceDump {
		dumpTraces(client, len(addrs))
	}
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
// fault-handling and membership counters must be nonzero.
func runChaos(requests, concurrency int, seed int64) error {
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
	// printed beside the fault counters (and stay readable even for the
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
		Breakpoints: []loadgen.Breakpoint{{Index: crashAt, Fn: func() {
			log.Printf("chaos: crashing node %d", crashNode)
			nodes[crashNode].Close()
		}}},
	})
	if err != nil {
		return fmt.Errorf("chaos: client-visible failure: %w", err)
	}
	fmt.Println(res)

	c := res.Cluster
	if c.RPCTimeouts+c.BreakerSkips+c.HomeFallbacks == 0 {
		return fmt.Errorf("chaos: crash produced no node-side fault events — the scenario did not exercise the fallback path")
	}
	if res.Fault.Failovers == 0 {
		return fmt.Errorf("chaos: no client failovers recorded — entry-node failover was not exercised")
	}
	if c.HeartbeatFailures == 0 {
		return fmt.Errorf("chaos: no heartbeat failures recorded around a crash — the failure detector never fired")
	}
	if c.MembershipEpoch < 2 {
		return fmt.Errorf("chaos: membership epoch %d — the crash was never promoted to dead", c.MembershipEpoch)
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
	log.Printf("chaos: PASS (epoch %d, %d blocks rebalanced, %d heartbeat failures)",
		c.MembershipEpoch, c.RebalancedBlocks, c.HeartbeatFailures)
	return nil
}
