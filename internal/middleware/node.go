package middleware

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/obs"
)

// Config parameterizes one live middleware node.
type Config struct {
	// ID is this node's index in the cluster.
	ID int
	// Listen is the TCP address to listen on (e.g. "127.0.0.1:0").
	Listen string
	// CapacityBlocks is the local cache size in blocks.
	CapacityBlocks int
	// Policy is the replacement policy (PolicyMaster recommended; this is
	// the paper's headline variant).
	Policy core.Policy
	// Geometry is the block layout (zero value: 8 KB blocks).
	Geometry block.Geometry
	// Source is this node's backing store. FileSize must answer for every
	// file in the cluster (the global file-to-node mapping of §3 includes
	// sizes); ReadBlock/WriteBlock are only invoked for files homed here.
	Source BlockSource
	// RPCTimeout bounds every peer round trip: a reply that does not
	// arrive in time fails that RPC (and feeds the peer's circuit
	// breaker) instead of wedging the request forever. 0 applies the
	// 5-second default; negative disables deadlines.
	RPCTimeout time.Duration
	// Retries is the number of extra attempts granted to idempotent RPCs
	// with no alternative target (home reads, directory ops, home
	// write-through). Peer cache fetches never retry — falling back to
	// the home node is their retry. 0 applies the default (2); negative
	// disables retries.
	Retries int
	// BreakerThreshold is the number of consecutive transport failures
	// after which a peer's circuit breaker opens and requests to it fail
	// fast (suspected down). 0 applies the default (5); negative disables
	// the breakers.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects requests before
	// admitting a half-open probe. 0 applies the 500 ms default.
	BreakerCooldown time.Duration
	// HeartbeatInterval enables heartbeat failure detection: every interval
	// the node probes its peers with MsgPing (feeding the existing circuit
	// breakers), marks a peer suspect after SuspectTimeout without a
	// successful probe, and proposes it dead after DeadTimeout (the
	// coordinator then re-homes its slice of the ring). 0 (the default)
	// disables heartbeats — membership only changes by explicit RPC.
	HeartbeatInterval time.Duration
	// SuspectTimeout is how long a peer can miss probes before it is
	// locally suspect (reads route around it). Default 3×HeartbeatInterval.
	SuspectTimeout time.Duration
	// DeadTimeout is how long a peer can miss probes before this node asks
	// the coordinator to promote it to dead cluster-wide. Default
	// 10×HeartbeatInterval.
	DeadTimeout time.Duration
	// Fault, when non-nil, injects transport faults (delays, drops,
	// partitions, mid-frame crashes) into every connection this node
	// dials or accepts. Testing and chaos benchmarking only.
	Fault *FaultPlan
	// Tracer, when non-nil, records protocol events (forwards, home
	// fallbacks, stale drops, invalidations, breaker transitions, retries)
	// into a bounded ring buffer, dumpable via the MsgTrace RPC. nil
	// disables tracing at zero cost.
	Tracer *obs.Tracer
}

// Protocol trace event kinds (obs.Event.Kind).
const (
	traceForward        = "forward"         // eviction forward shipped (Aux: 1 accepted, 0 rejected/failed)
	traceHomeFallback   = "home_fallback"   // peer fetch degraded to the home node
	traceStaleDrop      = "stale_drop"      // directory entry dropped after a peer failure
	traceInvalidate     = "invalidate"      // block invalidated (write protocol)
	traceInvalidateSkip = "invalidate_skip" // invalidation degraded to "peer holds no cache"
	traceBreakerOpen    = "breaker_open"    // circuit breaker opened for Peer
	traceBreakerClose   = "breaker_close"   // circuit breaker closed after a successful probe
	traceRetry          = "retry"           // RPC retried after a transient failure (Aux: attempt)
	traceRPCTimeout     = "rpc_timeout"     // round trip missed the RPC deadline
	traceRunFetch       = "run_fetch"       // run fetch completed (Peer: source, Aux: blocks served)
	traceInvalBatch     = "inval_batch"     // invalidation batch delivered to Peer (Aux: records)
	traceInvalCatchup   = "inval_catchup"   // catch-up started against origin Peer (Aux: from seq, -1 flush)
	traceRebalance      = "rebalance"       // file re-homed here (File: file, Aux: blocks pulled, -1 unreachable old home)
	traceMemberJoin     = "member_join"     // membership view installed with a new/returning member (Peer: member, Aux: epoch)
	traceMemberDead     = "member_dead"     // membership view installed promoting Peer to dead (Aux: epoch)
	traceHeartbeatFail  = "heartbeat_fail"  // heartbeat probe of Peer failed (Aux: consecutive misses)
)

// Node is a live cooperative caching node: a TCP server cooperating with
// its peers to manage the cluster's memory as a single block cache.
type Node struct {
	cfg  Config
	geom block.Geometry
	ln   net.Listener

	store  *Store
	dirSrv *dirServer // directory entries of the files this node homes (dir.go)

	mu       sync.Mutex
	addrs    []string
	peers    []*conn
	peerAges []*atomic.Int64
	breakers []*breaker // per-peer circuit breakers (index = node ID)
	accepted map[*conn]struct{}
	closed   bool

	// view is the current membership snapshot (ring.go): an immutable
	// epoch-versioned value swapped atomically, so the home mapping on the
	// read path is a single pointer load with no lock. memberMu serializes
	// view construction (join/drain/dead promotion — the coordinator's
	// serialization point); installView does the CAS install.
	view     atomic.Pointer[memberView]
	memberMu sync.Mutex
	// installMu is held by installView through its post-install work, and
	// installing counts the installs under way (see ensureMigrated).
	installMu  sync.RWMutex
	installing atomic.Int32

	// Heartbeat failure detection (member.go). hbStop ends the probe loop;
	// hbMu guards hbBusy (peers with a probe in flight), hbLast (last
	// successful probe per peer), and hbFails (consecutive probe failures,
	// reset on success — dead promotion needs deadMinFails of them).
	// hbSuspect marks peers this node currently routes around (local
	// judgement — not a view state).
	hbStop                                  chan struct{}
	hbMu                                    sync.Mutex
	hbBusy                                  map[int]bool
	hbLast                                  map[int]time.Time
	hbFails                                 map[int]int
	hbSuspect                               map[int]bool
	hbInterval, hbSuspectAfter, hbDeadAfter time.Duration

	// Rebalance state (rebalance.go): migrPending maps each file whose home
	// moved here to its previous home, migrFlight single-flights the pulls,
	// migrCount mirrors len(migrPending) so the hot path's "is a migration
	// running" check is one atomic load.
	migrMu      sync.Mutex
	migrPending map[block.FileID]int
	migrFlight  map[block.FileID]chan struct{}
	migrCount   atomic.Int64

	// pend stripes the miss-coalescing map with the store's shard count, so
	// concurrent misses on different blocks do not serialize on one mutex
	// while they register their in-flight fetch.
	pend     []pendShard
	pendMask uint64

	// bus is the asynchronous invalidation bus (nil: a single-node cluster,
	// which has no peer to tell). invalIn is the per-origin receive state
	// (index = origin node ID). See inval.go.
	bus     *invalBus
	invalIn []*invalOrigin

	// rpcTimeout/retries and the breaker parameters are the resolved
	// settings (Config values with defaults applied).
	rpcTimeout time.Duration
	retries    int
	brThresh   int
	brCooldown time.Duration

	// retryRand is the per-node seeded jitter stream of the retry backoff:
	// deterministic under a seeded FaultPlan and free of global-rand
	// contention.
	retryRand *lockedRand
	// tracer is Config.Tracer (nil: tracing disabled).
	tracer *obs.Tracer
	// rpcLat holds one latency histogram per outgoing request frame type,
	// fed by conn.roundTrip.
	rpcLat [msgTypeCount]obs.Histogram
	// runBlocks is the distribution of blocks served per run fetch RPC.
	runBlocks obs.ValueHistogram
	// invalLag is the publish-to-ack latency of invalidation records (the
	// measured staleness window); invalBatchBlocks is the distribution of
	// records per delivered batch.
	invalLag         obs.Histogram
	invalBatchBlocks obs.ValueHistogram

	c counters
}

// pendShard is one stripe of the miss-coalescing map: concurrent fetches of
// the same block join the stripe's in-flight channel instead of issuing a
// duplicate RPC (getBlock).
type pendShard struct {
	mu      sync.Mutex
	waiting map[block.ID]chan struct{}
}

// pendingShard routes a block to its miss-coalescing stripe (same hash and
// stripe count as the store's shards).
func (n *Node) pendingShard(id block.ID) *pendShard {
	if len(n.pend) == 1 {
		return &n.pend[0]
	}
	return &n.pend[shardHash(id)&n.pendMask]
}

// counters holds the node's statistics.
type counters struct {
	accesses, localHits, remoteHits, diskReads, raceMisses atomic.Uint64
	forwards, forwardsRejected, invalidations, writes      atomic.Uint64
	// fault-tolerance counters
	rpcTimeouts, rpcRetries, rpcFailures atomic.Uint64
	breakerOpens, breakerSkips           atomic.Uint64
	homeFallbacks, staleDrops            atomic.Uint64
	invalidateSkips                      atomic.Uint64
	// run fast-path counters
	runsIssued, runsDegraded atomic.Uint64
	// invalidation bus counters
	invalBatched, invalCatchups atomic.Uint64
	// membership / rebalance counters
	rebalancedBlocks, heartbeatFailures atomic.Uint64
}

// Stats is a snapshot of a node's behaviour (JSON-encodable for the
// MsgStats RPC).
type Stats struct {
	Node             int
	Accesses         uint64
	LocalHits        uint64
	RemoteHits       uint64
	DiskReads        uint64
	RaceMisses       uint64
	Forwards         uint64
	ForwardsRejected uint64
	Invalidations    uint64
	Writes           uint64
	// Fault-tolerance counters: see the Failure model section of DESIGN.md.
	RPCTimeouts     uint64 // round trips that missed RPCTimeout
	RPCRetries      uint64 // retry attempts issued after transient failures
	RPCFailures     uint64 // RPCs that failed after exhausting their retries
	BreakerOpens    uint64 // closed→open circuit breaker transitions
	BreakerSkips    uint64 // requests failed fast by an open breaker
	HomeFallbacks   uint64 // block fetches degraded to the home node after a peer transport failure
	StaleDrops      uint64 // directory entries dropped because the named peer failed
	InvalidateSkips uint64 // write invalidations treated as "peer holds no cache" after a peer failure
	// Run fast-path counters: see the Run-granular reads section of DESIGN.md.
	RunsIssued   uint64 // MsgGetRun RPCs issued by the read planner
	RunsDegraded uint64 // run fetches that served fewer blocks than asked (or failed)
	// Invalidation bus counters: see the Write path & invalidation bus
	// section of DESIGN.md.
	InvalBatched  uint64 // invalidation records delivered via batched bus frames
	InvalCatchups uint64 // MsgInvalSince catch-up reconciliations started
	InvalBacklog  uint64 // deepest currently unacknowledged bus backlog across peers
	// Elastic membership counters: see the Elastic membership section of
	// DESIGN.md.
	MembershipEpoch   uint64 // current membership view epoch (0: no view installed)
	RebalancedBlocks  uint64 // blocks pulled here by home re-assignment (rebalance)
	RebalancePending  uint64 // files whose re-homing pull has not completed yet
	HeartbeatFailures uint64 // heartbeat probes that failed
	StoreLen          int
	StoreMasters      int
	// RPCLatency holds the node's per-RPC-type latency histograms, keyed by
	// the request frame type's metric name (only types with observations).
	// ClusterStats merges them bucket-wise across nodes.
	RPCLatency map[string]obs.HistogramData `json:",omitempty"`
}

// TraceDump is the MsgTrace RPC payload: the retained window of a node's
// protocol event trace, oldest first. Total exceeding len(Events) means
// the ring dropped that much earlier history.
type TraceDump struct {
	Node   int         `json:"node"`
	Total  uint64      `json:"total"`
	Events []obs.Event `json:"events"`
}

// HitRate is the fraction of block accesses served from cluster memory.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.LocalHits+s.RemoteHits) / float64(s.Accesses)
}

// Start validates cfg, begins listening, and returns the node. Call
// SetAddrs once every node of the cluster is up, then the node is fully
// operational.
func Start(cfg Config) (*Node, error) {
	if cfg.CapacityBlocks <= 0 {
		return nil, fmt.Errorf("middleware: CapacityBlocks must be positive")
	}
	if cfg.Source == nil {
		return nil, fmt.Errorf("middleware: Source is required")
	}
	if cfg.Geometry == (block.Geometry{}) {
		cfg.Geometry = block.DefaultGeometry
	}
	if err := cfg.Geometry.Validate(); err != nil {
		return nil, err
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:      cfg,
		geom:     cfg.Geometry,
		ln:       ln,
		store:    newShardedStore(cfg.CapacityBlocks, cfg.Policy, 0),
		dirSrv:   newDirServer(),
		accepted: make(map[*conn]struct{}),
	}
	n.pend = make([]pendShard, n.store.ShardCount())
	n.pendMask = uint64(len(n.pend) - 1)
	for i := range n.pend {
		n.pend[i].waiting = make(map[block.ID]chan struct{})
	}
	n.rpcTimeout = cfg.RPCTimeout
	if n.rpcTimeout == 0 {
		n.rpcTimeout = defaultRPCTimeout
	}
	if n.rpcTimeout < 0 {
		n.rpcTimeout = 0 // deadlines disabled
	}
	n.retries = cfg.Retries
	if n.retries == 0 {
		n.retries = defaultRetries
	}
	if n.retries < 0 {
		n.retries = 0
	}
	n.brThresh = cfg.BreakerThreshold
	if n.brThresh == 0 {
		n.brThresh = defaultBreakerThreshold
	}
	n.brCooldown = cfg.BreakerCooldown
	if n.brCooldown <= 0 {
		n.brCooldown = defaultBreakerCooldown
	}
	// Seed the retry jitter per node (XOR-folded with the fault plan's seed
	// when one is attached), so a seeded chaos run has deterministic retry
	// timing draws.
	retrySeed := int64(cfg.ID+1) * 0x5851F42D4C957F2D
	if cfg.Fault != nil {
		retrySeed ^= cfg.Fault.Seed
	}
	n.retryRand = newLockedRand(retrySeed)
	n.tracer = cfg.Tracer
	n.migrPending = make(map[block.FileID]int)
	n.migrFlight = make(map[block.FileID]chan struct{})
	if cfg.HeartbeatInterval > 0 {
		n.hbInterval = cfg.HeartbeatInterval
		n.hbSuspectAfter = cfg.SuspectTimeout
		if n.hbSuspectAfter <= 0 {
			n.hbSuspectAfter = 3 * n.hbInterval
		}
		n.hbDeadAfter = cfg.DeadTimeout
		if n.hbDeadAfter <= 0 {
			n.hbDeadAfter = 10 * n.hbInterval
		}
		n.hbBusy = make(map[int]bool)
		n.hbLast = make(map[int]time.Time)
		n.hbFails = make(map[int]int)
		n.hbSuspect = make(map[int]bool)
		n.hbStop = make(chan struct{})
		go n.heartbeatLoop()
	}
	go n.acceptLoop()
	return n, nil
}

// Addr reports the node's listen address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// ID reports the node's cluster index.
func (n *Node) ID() int { return n.cfg.ID }

// SetAddrs installs the cluster's bootstrap membership (index = node ID):
// every address alive, epoch advanced past any prior view. It must be
// called before the node serves requests that involve peers. Bootstrap
// deliberately skips rebalance — each node starts with exactly its homed
// slice, there is nothing to pull. Later membership changes go through
// Join/Drain/dead promotion (member.go), which install views incrementally
// and migrate data.
func (n *Node) SetAddrs(addrs []string) {
	n.mu.Lock()
	n.addrs = append([]string(nil), addrs...)
	n.peers = make([]*conn, len(addrs))
	n.peerAges = make([]*atomic.Int64, len(addrs))
	n.breakers = make([]*breaker, len(addrs))
	for i := range n.peerAges {
		n.peerAges[i] = &atomic.Int64{}
		n.peerAges[i].Store(noAge)
		n.breakers[i] = &breaker{threshold: n.brThresh, cooldown: n.brCooldown}
	}
	n.invalIn = make([]*invalOrigin, len(addrs))
	for i := range n.invalIn {
		n.invalIn[i] = &invalOrigin{}
	}
	old := n.bus
	n.bus = nil
	if len(addrs) > 1 && !n.closed {
		n.bus = newInvalBus(n, len(addrs))
	}
	epoch := uint64(1)
	if v := n.view.Load(); v != nil && v.epoch >= epoch {
		epoch = v.epoch + 1
	}
	members := make([]memberInfo, len(addrs))
	for i, a := range addrs {
		members[i] = memberInfo{Addr: a, State: stateAlive}
	}
	n.view.Store(newMemberView(epoch, members))
	n.mu.Unlock()
	if old != nil {
		old.shutdown()
	}
}

// breakerFor returns the circuit breaker of peer i (nil when membership is
// not installed or i is out of range; a nil breaker always allows).
func (n *Node) breakerFor(i int) *breaker {
	n.mu.Lock()
	defer n.mu.Unlock()
	if i < 0 || i >= len(n.breakers) {
		return nil
	}
	return n.breakers[i]
}

// Close shuts the node down.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	if n.hbStop != nil {
		close(n.hbStop)
	}
	if n.bus != nil {
		n.bus.shutdown()
	}
	peers := append([]*conn(nil), n.peers...)
	acc := make([]*conn, 0, len(n.accepted))
	for c := range n.accepted {
		acc = append(acc, c)
	}
	n.mu.Unlock()
	err := n.ln.Close()
	for _, c := range peers {
		if c != nil {
			c.close()
		}
	}
	for _, c := range acc {
		c.close()
	}
	return err
}

// Stats snapshots the node's counters.
func (n *Node) Stats() Stats {
	s := Stats{
		Node:             n.cfg.ID,
		Accesses:         n.c.accesses.Load(),
		LocalHits:        n.c.localHits.Load(),
		RemoteHits:       n.c.remoteHits.Load(),
		DiskReads:        n.c.diskReads.Load(),
		RaceMisses:       n.c.raceMisses.Load(),
		Forwards:         n.c.forwards.Load(),
		ForwardsRejected: n.c.forwardsRejected.Load(),
		Invalidations:    n.c.invalidations.Load(),
		Writes:           n.c.writes.Load(),
		RPCTimeouts:      n.c.rpcTimeouts.Load(),
		RPCRetries:       n.c.rpcRetries.Load(),
		RPCFailures:      n.c.rpcFailures.Load(),
		BreakerOpens:     n.c.breakerOpens.Load(),
		BreakerSkips:     n.c.breakerSkips.Load(),
		HomeFallbacks:    n.c.homeFallbacks.Load(),
		StaleDrops:       n.c.staleDrops.Load(),
		InvalidateSkips:  n.c.invalidateSkips.Load(),
		RunsIssued:       n.c.runsIssued.Load(),
		RunsDegraded:     n.c.runsDegraded.Load(),
		InvalBatched:     n.c.invalBatched.Load(),
		InvalCatchups:    n.c.invalCatchups.Load(),
		StoreLen:         n.store.Len(),
		StoreMasters:     n.store.Masters(),

		RebalancedBlocks:  n.c.rebalancedBlocks.Load(),
		RebalancePending:  uint64(n.migrCount.Load()),
		HeartbeatFailures: n.c.heartbeatFailures.Load(),
	}
	if v := n.view.Load(); v != nil {
		s.MembershipEpoch = v.epoch
	}
	if b := n.busRef(); b != nil {
		s.InvalBacklog = b.depth()
	}
	for t := range n.rpcLat {
		if d := n.rpcLat[t].Snapshot(); d.Count > 0 {
			if s.RPCLatency == nil {
				s.RPCLatency = make(map[string]obs.HistogramData)
			}
			s.RPCLatency[MsgType(t).metricName()] = d
		}
	}
	return s
}

// RegisterMetrics registers the node's counters, gauges, and per-RPC-type
// latency histograms with r under cc_-prefixed Prometheus names (ccnode
// -metrics-addr serves them on /metrics).
func (n *Node) RegisterMetrics(r *obs.Registry) {
	c := &n.c
	counters := []struct {
		name, help string
		fn         func() uint64
	}{
		{"cc_accesses_total", "block accesses through the cooperative cache", c.accesses.Load},
		{"cc_local_hits_total", "accesses served from the local cache", c.localHits.Load},
		{"cc_remote_hits_total", "accesses served from a peer's cache", c.remoteHits.Load},
		{"cc_disk_reads_total", "accesses served from the backing store", c.diskReads.Load},
		{"cc_race_misses_total", "located masters that vanished before the fetch", c.raceMisses.Load},
		{"cc_forwards_total", "evicted masters forwarded to a peer", c.forwards.Load},
		{"cc_forwards_rejected_total", "eviction forwards rejected or failed", c.forwardsRejected.Load},
		{"cc_invalidations_total", "blocks invalidated by the write protocol", c.invalidations.Load},
		{"cc_writes_total", "write operations handled", c.writes.Load},
		{"cc_rpc_timeouts_total", "round trips that missed the RPC deadline", c.rpcTimeouts.Load},
		{"cc_rpc_retries_total", "retry attempts after transient failures", c.rpcRetries.Load},
		{"cc_rpc_failures_total", "RPCs failed after exhausting retries", c.rpcFailures.Load},
		{"cc_breaker_opens_total", "circuit breaker transitions into the open state", c.breakerOpens.Load},
		{"cc_breaker_skips_total", "requests failed fast by an open breaker", c.breakerSkips.Load},
		{"cc_home_fallbacks_total", "peer fetches degraded to the home node", c.homeFallbacks.Load},
		{"cc_stale_drops_total", "directory entries dropped after peer failures", c.staleDrops.Load},
		{"cc_invalidate_skips_total", "invalidations degraded to 'peer holds no cache'", c.invalidateSkips.Load},
		{"cc_runs_total", "MsgGetRun fetches issued by the read planner", c.runsIssued.Load},
		{"cc_runs_degraded_total", "run fetches that served fewer blocks than asked", c.runsDegraded.Load},
		{"cc_inval_batched_total", "invalidation records delivered via batched bus frames", c.invalBatched.Load},
		{"cc_inval_catchups_total", "invalidation catch-up reconciliations started", c.invalCatchups.Load},
		{"cc_rebalance_blocks_total", "blocks pulled here by home re-assignment", c.rebalancedBlocks.Load},
		{"cc_heartbeat_failures_total", "heartbeat probes that failed", c.heartbeatFailures.Load},
	}
	for _, m := range counters {
		r.Counter(m.name, m.help, "", m.fn)
	}
	r.ValueHistogram("cc_run_blocks", "blocks served per run fetch", "", &n.runBlocks)
	r.Histogram("cc_inval_lag_seconds", "publish-to-ack latency of invalidation records", "", &n.invalLag)
	r.ValueHistogram("cc_inval_batch_blocks", "records per delivered invalidation batch", "", &n.invalBatchBlocks)
	r.Gauge("cc_inval_bus_depth", "deepest unacknowledged invalidation backlog across peers", "", func() float64 {
		if b := n.busRef(); b != nil {
			return float64(b.depth())
		}
		return 0
	})
	r.Gauge("cc_membership_epoch", "current membership view epoch", "", func() float64 {
		if v := n.view.Load(); v != nil {
			return float64(v.epoch)
		}
		return 0
	})
	r.Gauge("cc_rebalance_pending", "files whose re-homing pull has not completed", "", func() float64 {
		return float64(n.migrCount.Load())
	})
	r.Gauge("cc_store_blocks", "blocks currently cached", "", func() float64 { return float64(n.store.Len()) })
	r.Gauge("cc_store_masters", "master copies currently cached", "", func() float64 { return float64(n.store.Masters()) })
	if n.tracer != nil {
		r.Gauge("cc_trace_events_total", "protocol trace events recorded (including overwritten)", "",
			func() float64 { return float64(n.tracer.Total()) })
	}
	for _, t := range requestMsgTypes {
		r.Histogram("cc_rpc_latency_seconds", "peer round-trip latency by request frame type",
			`type="`+t.metricName()+`"`, &n.rpcLat[t])
	}
}

// requestMsgTypes are the frame types that initiate round trips — the
// series pre-registered for the per-RPC-type latency histograms.
var requestMsgTypes = []MsgType{
	MsgReadFile, MsgReadRange, MsgDirDrop, MsgForward, MsgWriteBlock,
	MsgPutBlock, MsgStats, MsgTrace, MsgGetRun, MsgInvalidateN,
	MsgInvalSince, MsgPing, MsgView, MsgViewUpdate, MsgJoin, MsgDrain,
}

// busRef reads the bus pointer under the membership lock (SetAddrs can
// swap it).
func (n *Node) busRef() *invalBus {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.bus
}

// --- connection plumbing ---

func (n *Node) acceptLoop() {
	for {
		nc, err := n.ln.Accept()
		if err != nil {
			return
		}
		// The remote identity of an accepted conn is unknown (-1): the
		// fault plan applies its probabilistic faults but no partitions.
		nc = n.cfg.Fault.Wrap(nc, n.cfg.ID, -1)
		c := newConn(nc, n.connConfig())
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			c.close()
			return
		}
		n.accepted[c] = struct{}{}
		n.mu.Unlock()
	}
}

// connConfig builds the per-conn settings for this node's connections.
func (n *Node) connConfig() connConfig {
	return connConfig{
		handle:  n.handle,
		observe: n.observe,
		stamp:   n.stamp,
		workers: runtime.GOMAXPROCS(0),
		timeout: n.rpcTimeout,
		latency: n.observeRPCLatency,
	}
}

// observeRPCLatency feeds the per-RPC-type latency histograms (two atomic
// adds per round trip).
func (n *Node) observeRPCLatency(t MsgType, d time.Duration) {
	if int(t) < len(n.rpcLat) {
		n.rpcLat[t].Observe(d)
	}
}

// trace records one protocol event when a tracer is attached (nil tracer:
// a single branch).
func (n *Node) trace(kind string, peer int, id block.ID, aux int64) {
	if n.tracer == nil {
		return
	}
	n.tracer.Record(obs.Event{
		UnixNanos: time.Now().UnixNano(),
		Kind:      kind,
		Node:      int32(n.cfg.ID),
		Peer:      int32(peer),
		File:      int64(id.File),
		Idx:       id.Idx,
		Aux:       aux,
	})
}

// stamp decorates outgoing frames with identity and the oldest-age
// piggyback.
func (n *Node) stamp(f *Frame) {
	f.Sender = int32(n.cfg.ID)
	if age, ok := n.store.OldestAge(); ok {
		f.OldestAge = age
	} else {
		f.OldestAge = noAge
	}
}

// observe harvests piggybacked peer ages.
func (n *Node) observe(f *Frame) {
	if f.Sender < 0 {
		return
	}
	n.mu.Lock()
	var age *atomic.Int64
	if int(f.Sender) < len(n.peerAges) {
		age = n.peerAges[f.Sender]
	}
	n.mu.Unlock()
	if age != nil {
		age.Store(f.OldestAge)
	}
}

// peer returns (dialing lazily) the connection to node i.
func (n *Node) peer(i int) (*conn, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, errConnClosed
	}
	if n.addrs == nil {
		n.mu.Unlock()
		return nil, fmt.Errorf("middleware: node %d has no cluster membership (SetAddrs not called)", n.cfg.ID)
	}
	if i < 0 || i >= len(n.addrs) {
		n.mu.Unlock()
		return nil, fmt.Errorf("middleware: peer %d out of range", i)
	}
	if c := n.peers[i]; c != nil {
		n.mu.Unlock()
		return c, nil
	}
	addr := n.addrs[i]
	n.mu.Unlock()

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	nc = n.cfg.Fault.Wrap(nc, n.cfg.ID, i)
	c := newConn(nc, n.connConfig())
	n.mu.Lock()
	if won := n.peers[i]; won != nil {
		// Lost the dial race; keep the established one. The winner is read
		// under the lock: a concurrent roundTripTo may clear the slot the
		// moment the lock is released.
		n.mu.Unlock()
		c.close()
		return won, nil
	}
	n.peers[i] = c
	n.mu.Unlock()
	return c, nil
}

// roundTripTo sends a request to node i and awaits the response. When a
// connection has died (peer restart), one redial is attempted.
func (n *Node) roundTripTo(i int, f *Frame) (*Frame, error) {
	c, err := n.peer(i)
	if err != nil {
		return nil, err
	}
	resp, err := c.roundTrip(f)
	if err == errConnClosed {
		n.mu.Lock()
		if n.peers[i] == c {
			n.peers[i] = nil
		}
		n.mu.Unlock()
		c2, err2 := n.peer(i)
		if err2 != nil {
			return nil, err2
		}
		return c2.roundTrip(f)
	}
	return resp, err
}

// reliableRPC is roundTripTo behind the fault-tolerance layer: the peer's
// circuit breaker is consulted up front (an open breaker fails fast with
// errPeerSuspect instead of paying a timeout), transient transport
// failures are retried up to `retries` extra times with capped exponential
// backoff and jitter, and every outcome feeds the breaker and the fault
// counters. Only idempotent requests may pass retries > 0. Application
// errors (MsgErr) are returned immediately: the peer is alive.
//
// The request frame stays owned by the caller and is reused across
// attempts; the returned response must be released by the caller.
func (n *Node) reliableRPC(peer int, f *Frame, retries int) (*Frame, error) {
	br := n.breakerFor(peer)
	if !br.allow() {
		n.c.breakerSkips.Add(1)
		return nil, errPeerSuspect
	}
	backoff := defaultRetryBackoff
	for attempt := 0; ; attempt++ {
		resp, err := n.roundTripTo(peer, f)
		if err == nil {
			if br.success() {
				n.trace(traceBreakerClose, peer, f.ID(), 0)
			}
			return resp, nil
		}
		if !isTransient(err) {
			// The peer answered: the operation is wrong, not the wire.
			return nil, err
		}
		if errors.Is(err, errRPCTimeout) {
			n.c.rpcTimeouts.Add(1)
			n.trace(traceRPCTimeout, peer, f.ID(), int64(attempt))
		}
		if br.failure() {
			n.c.breakerOpens.Add(1)
			n.trace(traceBreakerOpen, peer, f.ID(), 0)
		}
		if attempt >= retries {
			n.c.rpcFailures.Add(1)
			return nil, err
		}
		// Only re-enter the breaker when a retry will actually happen
		// (allow consumes the half-open probe slot).
		if !br.allow() {
			n.c.breakerSkips.Add(1)
			n.c.rpcFailures.Add(1)
			return nil, err
		}
		n.c.rpcRetries.Add(1)
		n.trace(traceRetry, peer, f.ID(), int64(attempt+1))
		backoffSleep(&backoff, retryBackoffCap, n.retryRand)
	}
}

// home reports the home node of file f — the global file-to-node mapping
// of §3, a lock-free lookup on the current view's consistent-hash ring.
func (n *Node) home(f block.FileID) (int, error) {
	v := n.view.Load()
	if v == nil {
		return 0, fmt.Errorf("middleware: no cluster membership")
	}
	h, ok := v.home(f)
	if !ok {
		return 0, fmt.Errorf("middleware: no cluster membership")
	}
	return h, nil
}

// clusterSize is the member-slot count (dead slots included): the bound of
// every per-peer loop and array index.
func (n *Node) clusterSize() int {
	if v := n.view.Load(); v != nil {
		return v.size()
	}
	return 0
}

// viewRef is the current membership view (nil before SetAddrs).
func (n *Node) viewRef() *memberView { return n.view.Load() }

// --- request handling ---

func (n *Node) handle(f *Frame) *Frame {
	switch f.Type {
	case MsgGetRun:
		return n.handleGetRun(f)
	case MsgReadFile, MsgReadRange:
		return n.handleRead(f)
	case MsgDirDrop:
		n.dirSrv.cas(f.ID(), int32(f.Aux>>32), int32(f.Aux))
		return ackFrame()
	case MsgForward:
		return n.handleForward(f)
	case MsgWriteBlock:
		// WriteBlock retains the slice (store insert): take ownership away
		// from the pooled frame.
		if err := n.WriteBlock(f.ID(), f.TakePayload()); err != nil {
			return errFrameFrom(err, "write %v: %v", f.ID(), err)
		}
		return ackFrame()
	case MsgInvalidateN:
		return n.handleInvalidateN(f)
	case MsgInvalSince:
		return n.handleInvalSince(f)
	case MsgPing:
		return n.handlePing(f)
	case MsgView:
		return n.handleView(f)
	case MsgViewUpdate:
		return n.handleViewUpdate(f)
	case MsgJoin:
		return n.handleJoin(f)
	case MsgDrain:
		return n.handleDrain(f)
	case MsgPutBlock:
		// The BlockSource contract does not promise a copy: take ownership.
		if err := n.putLocal(f.ID(), f.TakePayload(), f.Sender); err != nil {
			return errFrame("put %v: %v", f.ID(), err)
		}
		return ackFrame()
	case MsgStats:
		payload, err := json.Marshal(n.Stats())
		if err != nil {
			return errFrame("stats: %v", err)
		}
		r := getFrame()
		r.Type, r.Payload = MsgStatsReply, payload
		return r
	case MsgTrace:
		payload, err := json.Marshal(TraceDump{
			Node:   n.cfg.ID,
			Total:  n.tracer.Total(),
			Events: n.tracer.Events(),
		})
		if err != nil {
			return errFrame("trace: %v", err)
		}
		r := getFrame()
		r.Type, r.Payload = MsgTraceReply, payload
		return r
	default:
		return errFrame("unknown message type %d", f.Type)
	}
}

// handleGetRun serves blocks of a span in one response, the served count
// and per-block master flags packed into Aux. A home miss or a source read
// is serveHome's, and its reply's payload is one code per block, then the
// served blocks. A peer run gathers local cache hits and stops at the first
// gap. A short (even empty) answer is a valid response, never an error:
// the requester completes the remainder per-block.
func (n *Node) handleGetRun(f *Frame) *Frame {
	want, wanted := unpackRunAux(f.Aux)
	if want <= 0 || want > maxRunBlocks || wanted>>uint(want) != 0 {
		return errFrame("bad run %d (wanted %#x) for %v", want, wanted, f.ID())
	}
	first := f.Idx
	if wanted != 0 || f.Flags&FlagMaster != 0 {
		requester := f.Sender
		if wanted == 0 {
			// The rebalance pull: every block from the source, no directory.
			wanted, requester = uint32(1)<<uint(want)-1, -1
		}
		h, err := n.serveHome(f.File, span{first: first, count: want, wanted: wanted}, requester, f.Flags&FlagMaster != 0)
		if err != nil {
			return errFrame("home read %v: %v", f.ID(), err)
		}
		r := getFrame()
		r.Type, r.File, r.Idx, r.bufs = MsgRunData, f.File, first, h.blocks
		r.Aux = packRunAux(len(h.blocks), h.masters)
		r.Payload = appendHomeCodes(make([]byte, 0, 4*want), h.codes)
		r.Segs = make([][]byte, len(h.blocks)) // scatter-gathered by the writer; never concatenated
		for i, pb := range h.blocks {
			r.Segs[i] = pb.data
		}
		return r
	}
	// Peer run: pinned references straight out of the sharded store, kept
	// as the reply's pins (in its inline array for up to two blocks). The
	// reply aliases the pinned buffers — N cached blocks ship with zero
	// payload copies and zero concatenation, a single block as the plain
	// payload; the pins drop after the socket write.
	r := getFrame()
	bufs, masters := n.store.GetRun(f.File, first, want, r.bufArr[:0])
	r.Type, r.File, r.Idx, r.bufs = MsgRunData, f.File, first, bufs
	r.Aux = packRunAux(len(bufs), masters)
	switch {
	case len(bufs) == 1:
		r.Payload = bufs[0].data
	case len(bufs) > 1:
		r.Segs = make([][]byte, len(bufs))
		for i, pb := range bufs {
			r.Segs[i] = pb.data
		}
	}
	return r
}

// handleRead answers MsgReadFile (the whole file) and MsgReadRange (a byte
// range clamped to the file, whose size is the reply's Aux) the way
// handleGetRun answers a peer run: the reply's segments alias the blocks
// pinRange pinned, the first and last sliced to the range, and the frame
// holds the pins (inline for up to two blocks) until the socket write is
// done. No byte is copied before the writev.
func (n *Node) handleRead(f *Frame) *Frame {
	r := getFrame()
	size, err := n.cfg.Source.FileSize(f.File)
	off, length, what := int64(0), int(size), "read file"
	if f.Type == MsgReadRange {
		off, length = unpackRange(f.Aux)
		r.Aux, what = size, "read range"
	}
	var end int64
	if err == nil {
		r.bufs, end, err = n.pinRange(f.File, size, off, length, r.bufArr[:0])
	}
	if err != nil {
		releaseFrame(r)
		return errFrameFrom(err, "%s %d: %v", what, f.File, err)
	}
	r.Type, r.File = MsgFileData, f.File
	r.Segs = n.segments(make([][]byte, 0, len(r.bufs)), r.bufs, off, end) // scatter-gathered by the writer
	return r
}

func (n *Node) handleForward(f *Frame) *Frame {
	id := f.ID()
	// The store keeps the forwarded payload: take the refcounted buffer from
	// the frame, pooled backing and all, so an eventual eviction recycles it.
	accepted, displaced := n.store.AcceptForwardBuf(id, f.TakePayloadBuf(), f.Aux)
	if displaced != nil && displaced.Master {
		// The block we discarded to make room was a master: the cluster
		// forgets it (no cascaded forwarding, §3). Off the handler, like
		// every RPC a peer's request causes: see handleInvalidate.
		go n.dirCAS(displaced.ID, int32(n.cfg.ID), dirNoEntry)
	}
	r := getFrame()
	r.Type, r.File, r.Idx = MsgForwardAck, f.File, f.Idx
	if accepted {
		r.Flags = 1
	}
	return r
}

// handleInvalidate discards this node's copy of a block a write superseded.
// It leaves the directory alone: the writer repoints the entry to itself at
// the block's home before it publishes the invalidation, so a drop sent from
// here would never find this node's name. It must also issue no RPC. It runs
// on the worker pool of a peer's connection, every node manages directory
// entries, and two nodes whose workers all wait on directory RPCs to each
// other would serve nothing until the RPCs time out.
func (n *Node) handleInvalidate(id block.ID) {
	n.c.invalidations.Add(1)
	n.trace(traceInvalidate, -1, id, 0)
	n.store.Remove(id)
}
