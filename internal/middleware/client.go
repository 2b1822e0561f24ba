package middleware

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/obs"
)

// ClientConfig parameterizes a cluster client's fault tolerance.
type ClientConfig struct {
	// RPCTimeout bounds every request round trip (0: the 5 s default;
	// negative: no deadline).
	RPCTimeout time.Duration
	// Retries is the number of alternative nodes tried after a transient
	// failure of a read or write (both are idempotent: reads trivially,
	// writes by last-writer-wins). 0 applies the default (2); negative
	// disables failover.
	Retries int
	// BreakerThreshold/BreakerCooldown configure the per-node circuit
	// breakers used to steer requests away from suspected-down nodes
	// (0: defaults of 5 consecutive failures / 500 ms; negative
	// threshold disables).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Fault, when non-nil, injects transport faults into every dialed
	// connection (testing and chaos benchmarking only).
	Fault *FaultPlan
}

// ClientFaultStats counts the client-visible fault handling.
type ClientFaultStats struct {
	Timeouts     uint64 `metric:"cc_client_timeouts_total" help:"client round trips that missed the RPC deadline"`
	Failovers    uint64 `metric:"cc_client_failovers_total" help:"client requests retried on another entry node"`
	BreakerSkips uint64 `metric:"cc_client_breaker_skips_total" help:"entry-node selections steered around an open breaker"`
}

// Client talks to a middleware cluster. Reads are spread over the nodes
// round-robin, playing the role of the round-robin DNS in front of the
// paper's web server. Transient failures (timeouts, dropped or refused
// connections) fail over to another node under ClientConfig.Retries, and
// per-node circuit breakers steer new requests away from suspected-down
// nodes.
type Client struct {
	// fault is first so its 64-bit atomics are 8-byte aligned on every
	// platform.
	fault ClientFaultStats

	// peers is the client's picture of the cluster and a conn and a
	// breaker per member (peer.go). Its view starts as the dialed address
	// list at epoch 0 and is refreshed from any live node after failover
	// trips, so the client survives the death of every original entry
	// point and discovers joined nodes without re-dialing. Its ring gives
	// the file→home placement the cluster uses (HomeOf) for locality-aware
	// entry (§4.1 hand-off).
	peers *peerTable
	rr    atomic.Uint32
	// lastRefresh rate-limits membership refreshes (unix nanos).
	lastRefresh atomic.Int64

	// Read-your-writes stickiness: the node that served a file's last write
	// holds the fresh master while the asynchronous invalidation bus drains,
	// so reads of that file re-enter there (bounded map, insert-order
	// eviction). Purely an entry-point hint — any node still returns correct
	// bytes within the staleness bound.
	stickyMu   sync.Mutex
	stickyNode map[block.FileID]int
	stickyRing []block.FileID
	stickyPos  int

	// rpcLat holds the latency histograms of the client's requests.
	rpcLat rpcLatency
}

// DialCluster returns a client for the given node addresses (index = node
// ID) with default fault tolerance. Connections are established lazily.
func DialCluster(addrs []string) (*Client, error) {
	return DialClusterConfig(addrs, ClientConfig{})
}

// DialClusterConfig is DialCluster with explicit fault-tolerance settings.
func DialClusterConfig(addrs []string, cfg ClientConfig) (*Client, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("middleware: no cluster addresses")
	}
	tol := newTolerance(cfg.RPCTimeout, cfg.Retries, cfg.BreakerThreshold, cfg.BreakerCooldown)
	c := &Client{}
	stamp := func(f *Frame) {
		f.Sender = -1
		f.OldestAge = noAge
	}
	c.peers = newPeerTable(-1, tol, cfg.Fault, connConfig{stamp: stamp, timeout: tol.timeout, latency: c.rpcLat.observe})
	c.peers.install(aliveView(0, addrs))
	return c, nil
}

// RPCLatency snapshots the client's per-RPC-type latency histograms, keyed
// by metric name (only types with observations).
func (c *Client) RPCLatency() map[string]obs.HistogramData { return latencies(&c.rpcLat) }

// RegisterMetrics registers the client's fault counters and latency
// histograms with r under cc_client_-prefixed Prometheus names.
func (c *Client) RegisterMetrics(r *obs.Registry) {
	obs.Register(r, &c.fault)
	for _, t := range requestMsgTypes {
		r.Histogram("cc_client_rpc_latency_seconds", "client round-trip latency by request frame type",
			`type="`+t.metricName()+`"`, &c.rpcLat[t])
	}
}

// next picks the next node round-robin over the live membership, steering
// around removed slots and nodes whose breaker is open (if every breaker
// is open, the round-robin choice proceeds anyway — somebody has to
// probe).
func (c *Client) next() int {
	v := c.peers.view.Load()
	n := v.size()
	for try := 0; try < n; try++ {
		i := int(c.rr.Add(1)-1) % n
		if !v.reachable(i) {
			continue
		}
		if c.peers.get(i).br.allow() {
			return i
		}
		atomic.AddUint64(&c.fault.BreakerSkips, 1)
	}
	for try := 0; try < n; try++ {
		i := int(c.rr.Add(1)-1) % n
		if v.members[i].Addr != "" {
			return i
		}
	}
	return int(c.rr.Add(1)-1) % n
}

func (c *Client) roundTrip(node int, f *Frame) (*Frame, error) {
	p := c.peers.get(node)
	if p == nil {
		return nil, errPeerSuspect // a slot no view has named: steer elsewhere
	}
	resp, err := c.peers.roundTrip(p, f)
	if err == errRPCTimeout {
		atomic.AddUint64(&c.fault.Timeouts, 1)
	}
	p.settle(err)
	return resp, err
}

// failoverTrip runs the request against node, retrying on other nodes
// (picked round-robin through the breakers) after transient failures.
// Only idempotent requests may use it. The second return value is the
// node that actually answered. Each failover first refreshes the
// membership view (rate-limited) so retries route around members the
// cluster has declared dead and reach members that joined after dial.
func (c *Client) failoverTrip(node int, f *Frame) (*Frame, int, error) {
	resp, err := c.roundTrip(node, f)
	for attempt := 0; attempt < c.peers.tol.retries && isTransient(err); attempt++ {
		atomic.AddUint64(&c.fault.Failovers, 1)
		c.maybeRefresh()
		node = c.next()
		resp, err = c.roundTrip(node, f)
	}
	return resp, node, err
}

// refreshInterval rate-limits failover-triggered membership refreshes.
const refreshInterval = 200 * time.Millisecond

// maybeRefresh refreshes the membership view unless one happened within
// refreshInterval (one refresh per failure burst, not one per retry).
func (c *Client) maybeRefresh() {
	now := time.Now().UnixNano()
	last := c.lastRefresh.Load()
	if now-last < int64(refreshInterval) || !c.lastRefresh.CompareAndSwap(last, now) {
		return
	}
	c.RefreshMembership() //nolint:errcheck // best effort; stale view keeps working
}

// RefreshMembership fetches the cluster's membership view from any node
// that answers and installs it if newer: dead members stop receiving
// requests, joined members become entry points. The client survives the
// death of every address it was dialed with, as long as some member it
// has learned about is still alive.
func (c *Client) RefreshMembership() error {
	v := c.peers.view.Load()
	var lastErr error
	for i := range v.members {
		if !v.reachable(i) {
			continue
		}
		req := getFrame()
		req.Type = MsgView
		resp, err := c.roundTrip(i, req)
		releaseFrame(req)
		if err != nil {
			lastErr = err
			continue
		}
		if resp.Type == MsgViewReply {
			v, derr := decodeView(resp.Payload)
			releaseFrame(resp)
			if derr != nil {
				lastErr = derr
				continue
			}
			c.peers.install(v)
			return nil
		}
		typ := resp.Type
		releaseFrame(resp)
		lastErr = fmt.Errorf("middleware: unexpected view reply %d", typ)
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("middleware: no live node to refresh membership from")
	}
	return lastErr
}

// HomeOf reports the home node of file f under the client's current
// membership view — the file→node placement the cluster itself uses, so a
// serving layer can enter at the node that will own the read (the paper's
// §4.1 request hand-off done at connection time instead of after a
// misrouted hop). ok is false until RefreshMembership has installed a
// view, or when the computed home is not currently reachable.
func (c *Client) HomeOf(f block.FileID) (int, bool) {
	v := c.peers.view.Load()
	if v.epoch == 0 {
		return 0, false // the dialed address list, not a view of the cluster's
	}
	h, ok := v.home(f)
	if !ok || !v.reachable(h) {
		return 0, false
	}
	return h, true
}

// MembershipEpoch reports the epoch of the client's membership view (0
// until a refresh has installed one; the dialed address list has no
// epoch).
func (c *Client) MembershipEpoch() uint64 { return c.peers.view.Load().epoch }

// DrainNode asks the cluster to move a member out of the ring (graceful
// leave): the member keeps serving while its successors pull its blocks.
// The updated view is installed locally on success. Once the survivors'
// RebalancePending drains to zero, RemoveNode completes the departure.
func (c *Client) DrainNode(node int) error {
	return c.memberDrain(node, 0)
}

// RemoveNode promotes a (typically drained) member to dead: the cluster
// stops routing to it entirely and it is safe to shut down.
func (c *Client) RemoveNode(node int) error {
	return c.memberDrain(node, 1)
}

func (c *Client) memberDrain(node int, flags uint8) error {
	req := getFrame()
	req.Type = MsgDrain
	req.Aux = int64(node)
	req.Flags = flags
	entry := c.next()
	if entry == node {
		entry = c.next()
	}
	resp, _, err := c.failoverTrip(entry, req)
	releaseFrame(req)
	if err != nil {
		return err
	}
	if resp.Type == MsgViewReply {
		if v, derr := decodeView(resp.Payload); derr == nil {
			c.peers.install(v)
		}
	}
	releaseFrame(resp)
	return nil
}

// stickyCap bounds the read-your-writes map; older entries are evicted in
// insertion order.
const stickyCap = 256

// noteWrite records node as the sticky entry point for file f.
func (c *Client) noteWrite(f block.FileID, node int) {
	c.stickyMu.Lock()
	defer c.stickyMu.Unlock()
	if c.stickyNode == nil {
		c.stickyNode = make(map[block.FileID]int, stickyCap)
		c.stickyRing = make([]block.FileID, stickyCap)
	}
	if _, ok := c.stickyNode[f]; !ok {
		old := c.stickyRing[c.stickyPos]
		if _, live := c.stickyNode[old]; live && len(c.stickyNode) >= stickyCap {
			delete(c.stickyNode, old)
		}
		c.stickyRing[c.stickyPos] = f
		c.stickyPos = (c.stickyPos + 1) % stickyCap
	}
	c.stickyNode[f] = node
}

// writeEntry returns the sticky entry node recorded for f, or -1 when
// there is none or its breaker is open (a suspected-down node is no place
// to chase freshness).
func (c *Client) writeEntry(f block.FileID) int {
	c.stickyMu.Lock()
	node, ok := c.stickyNode[f]
	c.stickyMu.Unlock()
	if !ok {
		return -1
	}
	if !c.peers.view.Load().reachable(node) {
		return -1 // the sticky node left the cluster
	}
	if !c.peers.get(node).br.allow() {
		return -1
	}
	return node
}

// Read fetches the whole content of file f through the cluster. Files
// this client recently wrote re-enter at the node that served the write
// (read-your-writes while the invalidation bus drains); everything else
// is spread round-robin.
func (c *Client) Read(f block.FileID) ([]byte, error) {
	node := c.writeEntry(f)
	if node < 0 {
		node = c.next()
	}
	return c.ReadVia(node, f)
}

// ReadVia fetches file f entering the cluster at a specific node (failing
// over to others if that node is unreachable).
func (c *Client) ReadVia(node int, f block.FileID) ([]byte, error) {
	req := getFrame()
	req.Type, req.File = MsgReadFile, f
	req.into.kind = intoOwned // the reply lands in the slice returned below
	resp, _, err := c.failoverTrip(node, req)
	releaseFrame(req)
	if err != nil {
		return nil, err
	}
	if resp.Type != MsgFileData {
		typ := resp.Type
		releaseFrame(resp)
		return nil, fmt.Errorf("middleware: unexpected reply %d", typ)
	}
	data := resp.TakePayload() // exact-length and the caller's: never pooled
	releaseFrame(resp)
	return data, nil
}

// Write updates one block of a file through the cluster (write-invalidate;
// see Node.WriteBlock). Transient failures fail over to another entry
// node: per-block last-writer-wins semantics make the retry idempotent.
func (c *Client) Write(f block.FileID, idx int32, data []byte) error {
	req := getFrame()
	req.Type, req.File, req.Idx, req.Payload = MsgWriteBlock, f, idx, data
	resp, served, err := c.failoverTrip(c.next(), req)
	req.Payload = nil // caller's slice, not ours to recycle
	releaseFrame(req)
	if err == nil {
		releaseFrame(resp)
		c.noteWrite(f, served)
	}
	return err
}

// NodeStats fetches the statistics of one node (no failover: the target
// node is the point).
func (c *Client) NodeStats(node int) (Stats, error) {
	req := getFrame()
	req.Type = MsgStats
	resp, err := c.roundTrip(node, req)
	releaseFrame(req)
	if err != nil {
		return Stats{}, err
	}
	var s Stats
	err = json.Unmarshal(resp.Payload, &s)
	releaseFrame(resp)
	if err != nil {
		return Stats{}, err
	}
	return s, nil
}

// NodeTrace fetches the protocol event trace of one node (empty if the
// node runs without a tracer). No failover: the target node is the point.
func (c *Client) NodeTrace(node int) (TraceDump, error) {
	req := getFrame()
	req.Type = MsgTrace
	resp, err := c.roundTrip(node, req)
	releaseFrame(req)
	if err != nil {
		return TraceDump{}, err
	}
	var d TraceDump
	err = json.Unmarshal(resp.Payload, &d)
	releaseFrame(resp)
	if err != nil {
		return TraceDump{}, err
	}
	return d, nil
}

// FaultStats snapshots the client-side fault handling counters.
func (c *Client) FaultStats() ClientFaultStats { return obs.Snapshot(&c.fault) }

// ClusterStats aggregates the statistics of all reachable nodes: each
// declared counter and gauge by its rule (a sum, or the maximum for
// agg:"max"), the latency histograms bucket-wise. Nodes that fail
// with a transport error are skipped (a crashed node's counters died with
// it); an error is returned only when no node answers or a node answers
// garbage.
func (c *Client) ClusterStats() (Stats, error) {
	var sum Stats
	reached := 0
	var lastErr error
	v := c.peers.view.Load()
	for i := range v.members {
		if !v.reachable(i) {
			continue
		}
		s, err := c.NodeStats(i)
		if err != nil {
			if isTransient(err) {
				lastErr = err
				continue
			}
			return Stats{}, err
		}
		reached++
		sum = sum.add(s)
	}
	if reached == 0 {
		return Stats{}, fmt.Errorf("middleware: no node reachable for stats: %w", lastErr)
	}
	return sum, nil
}

// Close tears down all connections; later requests fail.
func (c *Client) Close() { c.peers.close() }
