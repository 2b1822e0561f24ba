// Command ccnode runs live cooperative caching middleware nodes and talks
// to them. Three modes:
//
//	# run one node of a cluster (repeat per node, then read via -get)
//	ccnode -serve -id 0 -listen 127.0.0.1:7000 \
//	       -cluster 127.0.0.1:7000,127.0.0.1:7001 -files 100 -avg 16384
//
//	# read a file through the cluster
//	ccnode -get 7 -cluster 127.0.0.1:7000,127.0.0.1:7001
//
//	# print per-node statistics
//	ccnode -stats -cluster 127.0.0.1:7000,127.0.0.1:7001
//
//	# additionally serve the cluster's files over HTTP (keep-alive + h2c)
//	ccnode -serve -id 0 ... -http-addr 127.0.0.1:8080
//
// All nodes of one cluster must be started with identical -files/-avg so
// they agree on the (synthetic) file set; a real deployment would supply a
// shared manifest and a DirSource instead.
package main

import (
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/httpfront"
	"repro/internal/loadgen"
	"repro/internal/middleware"
	"repro/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ccnode: ")
	var (
		serve    = flag.Bool("serve", false, "run a middleware node")
		id       = flag.Int("id", 0, "this node's index in -cluster")
		listen   = flag.String("listen", "", "listen address (default: the -cluster entry for -id)")
		cluster  = flag.String("cluster", "", "comma-separated node addresses, index = node ID")
		capacity = flag.Int("capacity", 4096, "cache capacity in blocks")
		policy   = flag.String("policy", "cc-master", "replacement policy (cc-basic, cc-master)")
		files    = flag.Int("files", 100, "synthetic file count")
		avg      = flag.Int64("avg", 16384, "synthetic average file size (bytes)")
		get      = flag.Int("get", -1, "read this file ID through the cluster and print its size")
		stats    = flag.Bool("stats", false, "print per-node statistics")
		rpcTO    = flag.Duration("rpc-timeout", 0, "per-RPC deadline (0: 5s default, negative: none)")
		retries  = flag.Int("retries", 0, "transient-failure retry budget (0: default of 2, negative: none)")
		brThresh = flag.Int("breaker-threshold", 0, "consecutive failures before a peer's circuit opens (0: default of 5, negative: disabled)")
		brCool   = flag.Duration("breaker-cooldown", 0, "open-circuit cooldown before a half-open probe (0: 500ms default)")
		metrics  = flag.String("metrics-addr", "", "with -serve: HTTP address exposing /metrics (Prometheus), /debug/vars, and /debug/pprof")
		httpAddr = flag.String("http-addr", "", "with -serve: HTTP front door serving the cluster's files as /f/<id> (keep-alive + h2c, locality hand-off; /httpstats for gateway counters)")
		traceCap = flag.Int("trace", 0, "with -serve: retain the last N protocol trace events, dumpable via the trace RPC (0: tracing off)")
		join     = flag.String("join", "", "with -serve: join a running cluster through this seed node address instead of -cluster (requires -listen; -id picks this node's slot)")
		drain    = flag.Int("drain", -1, "drain this node ID out of the cluster: mark it draining, wait for the survivors to pull its ring slice, then remove it")
		hbIvl    = flag.Duration("heartbeat-interval", 0, "with -serve: peer heartbeat probe interval (0: heartbeats off)")
		suspect  = flag.Duration("suspect-timeout", 0, "with -serve: silence before a peer is locally suspected (0: 3x heartbeat interval)")
		deadTO   = flag.Duration("dead-timeout", 0, "with -serve: silence before a suspected peer is proposed dead cluster-wide (0: 10x heartbeat interval)")
	)
	flag.Parse()

	addrs := splitAddrs(*cluster)
	if len(addrs) == 0 && !(*serve && *join != "") {
		log.Fatal("-cluster is required (or -serve -join <seed>)")
	}

	ft := faultTolerance{
		rpcTimeout:       *rpcTO,
		retries:          *retries,
		breakerThreshold: *brThresh,
		breakerCooldown:  *brCool,
	}

	switch {
	case *serve:
		ms := membership{join: *join, heartbeat: *hbIvl, suspect: *suspect, dead: *deadTO}
		runNode(*id, *listen, addrs, *capacity, *policy, *files, *avg, ft, ms, *metrics, *httpAddr, *traceCap)
	case *drain >= 0:
		client := dial(addrs, ft)
		defer client.Close()
		if err := drainNode(client, *drain); err != nil {
			log.Fatal(err)
		}
	case *get >= 0:
		client := dial(addrs, ft)
		defer client.Close()
		data, err := client.Read(block.FileID(*get))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("file %d: %d bytes\n", *get, len(data))
	case *stats:
		client := dial(addrs, ft)
		defer client.Close()
		for i := range addrs {
			s, err := client.NodeStats(i)
			if err != nil {
				// A crashed node has no counters to report; say so and
				// keep printing the live ones.
				fmt.Printf("node %d: unreachable (%v)\n", i, err)
				continue
			}
			fmt.Printf("node %d: %s hit=%.1f%%\n", i, obs.Pairs(s), s.HitRate()*100)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func splitAddrs(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func dial(addrs []string, ft faultTolerance) *middleware.Client {
	c, err := middleware.DialClusterConfig(addrs, middleware.ClientConfig{
		RPCTimeout:       ft.rpcTimeout,
		Retries:          ft.retries,
		BreakerThreshold: ft.breakerThreshold,
		BreakerCooldown:  ft.breakerCooldown,
	})
	if err != nil {
		log.Fatal(err)
	}
	return c
}

// faultTolerance groups the wire-path robustness knobs (see the middleware
// Config fields of the same names for the zero-value defaults).
type faultTolerance struct {
	rpcTimeout       time.Duration
	retries          int
	breakerThreshold int
	breakerCooldown  time.Duration
}

// membership groups the elastic-membership knobs: joining an existing
// cluster through a seed and the heartbeat failure-detection cadence.
type membership struct {
	join      string
	heartbeat time.Duration
	suspect   time.Duration
	dead      time.Duration
}

// drainNode runs the full graceful-departure lifecycle against a live
// cluster: mark the node draining (it keeps serving), wait until every
// survivor has pulled its share of the drained ring slice, then remove it
// — after which its process can be stopped with no client-visible errors.
func drainNode(client *middleware.Client, id int) error {
	if err := client.DrainNode(id); err != nil {
		return fmt.Errorf("drain node %d: %w", id, err)
	}
	log.Printf("node %d draining (epoch %d); waiting for the rebalance to settle", id, client.MembershipEpoch())
	deadline := time.Now().Add(10 * time.Minute)
	for {
		st, err := client.ClusterStats()
		if err == nil && st.RebalancePending == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("drain node %d: rebalance never settled", id)
		}
		time.Sleep(100 * time.Millisecond)
	}
	if err := client.RemoveNode(id); err != nil {
		return fmt.Errorf("remove node %d: %w", id, err)
	}
	log.Printf("node %d removed (epoch %d); its process can be stopped", id, client.MembershipEpoch())
	return nil
}

func runNode(id int, listen string, addrs []string, capacity int, policy string, files int, avg int64, ft faultTolerance, ms membership, metricsAddr, httpAddr string, traceCap int) {
	if ms.join != "" {
		if listen == "" {
			log.Fatal("-join requires -listen (the joiner's own address)")
		}
		if id < 0 {
			log.Fatalf("-id %d invalid", id)
		}
	} else if id < 0 || id >= len(addrs) {
		log.Fatalf("-id %d out of range for %d cluster addresses", id, len(addrs))
	}
	if listen == "" {
		listen = addrs[id]
	}
	var pol core.Policy
	switch policy {
	case "cc-basic":
		pol = core.PolicyBasic
	case "cc-master":
		pol = core.PolicyMaster
	default:
		log.Fatalf("unknown policy %q", policy)
	}
	sizes := make(map[block.FileID]int64, files)
	for f := 0; f < files; f++ {
		// Deterministic spread of sizes around the average so every node
		// agrees without coordination.
		sizes[block.FileID(f)] = avg/2 + int64(f%7)*(avg/7)
	}
	var tracer *obs.Tracer
	if traceCap > 0 {
		tracer = obs.NewTracer(traceCap)
	}
	n, err := middleware.Start(middleware.Config{
		ID:                id,
		Listen:            listen,
		CapacityBlocks:    capacity,
		Policy:            pol,
		Source:            middleware.NewMemSource(block.DefaultGeometry, sizes),
		RPCTimeout:        ft.rpcTimeout,
		Retries:           ft.retries,
		BreakerThreshold:  ft.breakerThreshold,
		BreakerCooldown:   ft.breakerCooldown,
		HeartbeatInterval: ms.heartbeat,
		SuspectTimeout:    ms.suspect,
		DeadTimeout:       ms.dead,
		Tracer:            tracer,
	})
	if err != nil {
		log.Fatal(err)
	}
	if ms.join != "" {
		if err := n.Join(ms.join); err != nil {
			n.Close()
			log.Fatalf("join via %s: %v", ms.join, err)
		}
		log.Printf("joined cluster via %s as node %d (epoch %d)", ms.join, id, n.MembershipEpoch())
	} else {
		n.SetAddrs(addrs)
	}
	// reg is the node's /metrics registry; the front door's gateway and
	// client register on it too.
	var reg *obs.Registry
	if metricsAddr != "" {
		reg = obs.NewRegistry()
		n.RegisterMetrics(reg)
		go serveMetrics(metricsAddr, reg)
	}
	if httpAddr != "" {
		clusterAddrs := addrs
		if len(clusterAddrs) == 0 {
			// Join mode: seed the gateway's client with our own address; the
			// membership refresh learns the rest of the cluster from it.
			clusterAddrs = []string{n.Addr()}
		}
		go serveHTTP(httpAddr, clusterAddrs, files, ft, reg)
	}
	log.Printf("node %d serving on %s (capacity %d blocks, %s)", id, n.Addr(), capacity, policy)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	log.Printf("shutting down")
	n.Close()
}

// serveHTTP runs the HTTP front door next to this node: a gateway over its
// own middleware client, serving the synthetic manifest as /f/<id> with
// HTTP/1.1 keep-alive and h2c, handing each request off to the file's home
// node. Any node of the cluster can run one — they are equivalent entry
// points, like the round-robin DNS fronting the paper's web server. A
// non-nil reg gets the gateway's and its client's metrics.
func serveHTTP(addr string, clusterAddrs []string, files int, ft faultTolerance, reg *obs.Registry) {
	client, err := middleware.DialClusterConfig(clusterAddrs, middleware.ClientConfig{
		RPCTimeout:       ft.rpcTimeout,
		Retries:          ft.retries,
		BreakerThreshold: ft.breakerThreshold,
		BreakerCooldown:  ft.breakerCooldown,
	})
	if err != nil {
		log.Printf("http front door: %v", err)
		return
	}
	table := httpfront.NewPathTable(nil)
	for f := 0; f < files; f++ {
		table.Add(loadgen.PathForFile(block.FileID(f)), block.FileID(f))
	}
	gw := httpfront.New(client, table)
	if reg != nil {
		client.RegisterMetrics(reg)
		gw.RegisterMetrics(reg)
	}
	mux := http.NewServeMux()
	mux.Handle("/", gw)
	mux.Handle("/httpstats", gw.StatsJSONHandler())
	mux.Handle("/stats", httpfront.StatsHandler(client))
	srv := httpfront.NewServer(mux)
	srv.Addr = addr
	log.Printf("http front door on http://%s/f/<id>", addr)
	if err := srv.ListenAndServe(); err != nil {
		log.Printf("http front door: %v", err)
	}
}

// serveMetrics exposes the node's observability surface on its own HTTP
// listener, kept off the cluster's RPC port: reg as Prometheus text on
// /metrics, Go runtime expvars on /debug/vars, and the standard pprof
// profiles under /debug/pprof.
func serveMetrics(addr string, reg *obs.Registry) {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	log.Printf("metrics on http://%s/metrics", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		log.Printf("metrics server: %v", err)
	}
}
