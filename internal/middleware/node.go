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
	// the node probes its peers with MsgPing, marks a peer suspect after
	// SuspectTimeout without a successful probe, and proposes it dead after
	// DeadTimeout (the coordinator then re-homes its slice of the ring).
	// Probes bypass the circuit breakers: they neither wait for nor feed
	// them, so a breaker opened by data-path congestion cannot fail a live
	// member's probes. 0 (the default) disables heartbeats — membership
	// only changes by explicit RPC.
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
	traceForward        = "forward"         // eviction forward's outcome where it is known (Peer: the other end; Aux: 1 accepted, 0 refused or unsent)
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
	traceInvalCatchup   = "inval_catchup"   // window from origin Peer refused as a gap (Aux: the mark acked) or truncated and flushed on (Aux: -1)
	traceRebalance      = "rebalance"       // file re-homed here (File: file, Aux: blocks pulled, -1 unreachable old home)
	traceMemberJoin     = "member_join"     // membership view installed with a new/returning member (Peer: member, Aux: epoch)
	traceMemberDead     = "member_dead"     // membership view installed promoting Peer to dead (Aux: epoch)
	traceHeartbeatFail  = "heartbeat_fail"  // heartbeat probe of Peer failed (Aux: consecutive misses)
)

// Node is a live cooperative caching node: a TCP server cooperating with
// its peers to manage the cluster's memory as a single block cache.
type Node struct {
	// c is first so its 64-bit atomics are 8-byte aligned on every platform.
	c Counts

	cfg  Config
	geom block.Geometry
	ln   net.Listener

	store  *Store
	dirSrv *dirServer // directory entries of the files this node homes (dir.go)

	mu       sync.Mutex
	accepted map[*conn]struct{}
	closed   bool

	// peers holds the current membership view (ring.go), an immutable
	// epoch-versioned snapshot swapped atomically so the home mapping on
	// the read path is one pointer load with no lock, and everything this
	// node keeps per member: conn, breaker, piggybacked age, invalidation
	// and heartbeat state (peer.go). memberMu serializes view construction
	// (join/drain/dead promotion — the coordinator's serialization point).
	peers    *peerTable
	memberMu sync.Mutex
	// installMu is held by installView through its post-install work, and
	// installing counts the installs under way (see ensureMigrated).
	installMu  sync.RWMutex
	installing atomic.Int32

	// Heartbeat failure detection (member.go): hbStop ends the probe loop.
	hbStop                                  chan struct{}
	hbInterval, hbSuspectAfter, hbDeadAfter time.Duration

	// Rebalance state (rebalance.go): migrPending maps each file whose home
	// moved here to its previous home, migrFlight single-flights the pulls,
	// migrCount mirrors len(migrPending) so the hot path's "is a migration
	// running" check is one atomic load.
	migrMu      sync.Mutex
	migrPending map[block.FileID]int
	migrFlight  map[block.FileID]chan struct{}
	migrCount   atomic.Int64

	// pending is the miss-coalescing map: concurrent fetches of the same
	// block join its in-flight channel instead of issuing a duplicate RPC
	// (getBlock).
	pendMu  sync.Mutex
	pending map[block.ID]chan struct{}

	// bus is the asynchronous invalidation bus (nil: a single-node cluster,
	// which has no peer to tell). See inval.go.
	bus *invalBus

	// tol is the Config's fault-tolerance settings, defaults applied.
	tol tolerance

	// retryRand is the per-node seeded jitter stream of the retry backoff:
	// deterministic under a seeded FaultPlan and free of global-rand
	// contention.
	retryRand *lockedRand
	// tracer is Config.Tracer (nil: tracing disabled).
	tracer *obs.Tracer
	// rpcLat holds the latency histograms of outgoing requests.
	rpcLat rpcLatency
	// runBlocks is the distribution of blocks served per run fetch RPC.
	runBlocks obs.ValueHistogram
	// invalLag is the publish-to-ack latency of invalidation records (the
	// measured staleness window); invalBatchBlocks is the distribution of
	// records per delivered batch.
	invalLag         obs.Histogram
	invalBatchBlocks obs.ValueHistogram
}

// TraceDump is the MsgTrace RPC payload: the retained window of a node's
// protocol event trace, oldest first. Total exceeding len(Events) means
// the ring dropped that much earlier history.
type TraceDump struct {
	Node   int         `json:"node"`
	Total  uint64      `json:"total"`
	Events []obs.Event `json:"events"`
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
		store:    NewStore(cfg.CapacityBlocks, cfg.Policy),
		dirSrv:   newDirServer(),
		accepted: make(map[*conn]struct{}),
		pending:  make(map[block.ID]chan struct{}),
	}
	n.tol = newTolerance(cfg.RPCTimeout, cfg.Retries, cfg.BreakerThreshold, cfg.BreakerCooldown)
	n.peers = newPeerTable(cfg.ID, n.tol, cfg.Fault, n.connConfig())
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
	n.installMu.Lock()
	epoch := uint64(1)
	if v := n.viewRef(); v != nil {
		epoch = v.epoch + 1
	}
	n.peers.install(aliveView(epoch, addrs))
	n.installMu.Unlock()
	n.mu.Lock()
	old := n.bus
	n.bus = nil
	if len(addrs) > 1 && !n.closed {
		n.bus = newInvalBus(n, len(addrs))
	}
	n.mu.Unlock()
	if old != nil {
		old.shutdown()
	}
}

// Close shuts the node down and releases its cache.
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
	acc := make([]*conn, 0, len(n.accepted))
	for c := range n.accepted {
		acc = append(acc, c)
	}
	n.mu.Unlock()
	err := n.ln.Close()
	n.peers.close()
	for _, c := range acc {
		c.close()
	}
	// Cached blocks live in arena frames, which only a release returns: the
	// store gives every block back, and a handler still running after this
	// has its install released instead of cached.
	n.store.Close()
	return err
}

// busRef reads the bus pointer under n.mu (SetAddrs can swap it).
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
		timeout: n.tol.timeout,
		latency: n.rpcLat.observe,
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
	if p := n.peers.get(int(f.Sender)); p != nil {
		p.age.Store(f.OldestAge)
	}
}

// reliableRPC is a round trip to member i behind the fault-tolerance
// layer: the member's circuit breaker is consulted up front (an open
// breaker fails fast with errPeerSuspect instead of paying a timeout),
// transient transport failures are retried up to `retries` extra times
// with capped exponential backoff and jitter, and every outcome feeds the
// breaker and the fault counters. Only idempotent requests may pass
// retries > 0. Application errors (MsgErr) are returned immediately: the
// member is alive.
//
// The request frame stays owned by the caller and is reused across
// attempts; the returned response must be released by the caller.
func (n *Node) reliableRPC(i int, f *Frame, retries int) (*Frame, error) {
	p := n.peers.get(i)
	if p == nil {
		return nil, fmt.Errorf("middleware: node %d has no member %d in its view", n.cfg.ID, i)
	}
	if !p.br.allow() {
		atomic.AddUint64(&n.c.BreakerSkips, 1)
		return nil, errPeerSuspect
	}
	backoff := defaultRetryBackoff
	for attempt := 0; ; attempt++ {
		resp, err := n.peers.roundTrip(p, f)
		if errors.Is(err, errRPCTimeout) {
			atomic.AddUint64(&n.c.RPCTimeouts, 1)
			n.trace(traceRPCTimeout, i, f.ID(), int64(attempt))
		}
		opened, closed := p.settle(err)
		if closed {
			n.trace(traceBreakerClose, i, f.ID(), 0)
		}
		if opened {
			atomic.AddUint64(&n.c.BreakerOpens, 1)
			n.trace(traceBreakerOpen, i, f.ID(), 0)
		}
		if !isTransient(err) {
			return resp, err // a reply, an application error included
		}
		if attempt >= retries {
			atomic.AddUint64(&n.c.RPCFailures, 1)
			return nil, err
		}
		// Only re-enter the breaker when a retry will actually happen
		// (allow consumes the half-open probe slot).
		if !p.br.allow() {
			atomic.AddUint64(&n.c.BreakerSkips, 1)
			atomic.AddUint64(&n.c.RPCFailures, 1)
			return nil, err
		}
		atomic.AddUint64(&n.c.RPCRetries, 1)
		n.trace(traceRetry, i, f.ID(), int64(attempt+1))
		backoffSleep(&backoff, retryBackoffCap, n.retryRand)
	}
}

// sendTo writes the one-way frame f to member i (peerTable.send): no
// reply, no retry, no breaker. The frame stays owned by the caller.
func (n *Node) sendTo(i int, f *Frame) error {
	p := n.peers.get(i)
	if p == nil {
		return fmt.Errorf("middleware: node %d has no member %d in its view", n.cfg.ID, i)
	}
	return n.peers.send(p, f)
}

// home reports the home node of file f — the global file-to-node mapping
// of §3, a lock-free lookup on the current view's consistent-hash ring.
func (n *Node) home(f block.FileID) (int, error) {
	v := n.viewRef()
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
	if v := n.viewRef(); v != nil {
		return v.size()
	}
	return 0
}

// viewRef is the current membership view (nil before SetAddrs).
func (n *Node) viewRef() *memberView { return n.peers.view.Load() }

// --- request handling ---

func (n *Node) handle(f *Frame) *Frame {
	switch f.Type {
	case MsgGetRun:
		return n.handleGetRun(f)
	case MsgReadFile, MsgReadRange:
		return n.handleRead(f)
	case MsgDirDrop:
		// One-way, applied on the conn's read loop: no reply.
		n.dirSrv.cas(f.ID(), int32(f.Aux>>32), int32(f.Aux))
		return nil
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
	// Peer run: pinned references straight out of the store, kept
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

// handleForward takes or refuses an evicted master a peer forwards (§3
// second chance) and records the outcome at the block's home, where the
// entry still names the evictor: it moves to this node on accept and is
// dropped on refusal, each a compare-and-set, so a claim made in the
// meantime stands. A master the accept displaced is dropped, not forwarded
// on (no cascaded forwarding, §3). The evictor gets no reply. The repoints
// are one-way frames written here, not from a goroutine, so they leave on
// this node's conn to the home ahead of any later message of this node's
// about either block; a repoint that still lands late is the home's to
// resolve (dirServer.passed).
func (n *Node) handleForward(f *Frame) *Frame {
	id, evictor, self := f.ID(), f.Sender, int32(n.cfg.ID)
	// The store caches a copy in a frame; the request's wire buffer goes
	// back to its pool with the request.
	accepted, displaced := n.store.AcceptForward(id, f.Payload, f.Aux)
	if accepted {
		atomic.AddUint64(&n.c.Forwards, 1)
		n.trace(traceForward, int(evictor), id, 1)
		n.dirCAS(id, evictor, self)
	} else {
		atomic.AddUint64(&n.c.ForwardsRejected, 1)
		n.trace(traceForward, int(evictor), id, 0)
		n.dirCAS(id, evictor, dirNoEntry)
	}
	if displaced != nil && displaced.Master {
		n.dirCAS(displaced.ID, self, dirNoEntry)
	}
	return nil
}

// handleInvalidate discards this node's copy of a block a write superseded.
// It leaves the directory alone: the writer repoints the entry to itself at
// the block's home before it publishes the invalidation, so a drop sent from
// here would never find this node's name. It must also issue no RPC. It runs
// on the worker pool of a peer's connection, every node manages directory
// entries, and two nodes whose workers all wait on directory RPCs to each
// other would serve nothing until the RPCs time out.
func (n *Node) handleInvalidate(id block.ID) {
	atomic.AddUint64(&n.c.Invalidations, 1)
	n.trace(traceInvalidate, -1, id, 0)
	n.store.Remove(id)
}
