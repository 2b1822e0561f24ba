package middleware

import (
	"encoding/json"
	"fmt"
	"net"
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

	// members is the client's picture of the cluster: node-ID-indexed
	// addresses and liveness, refreshed from any live node after failover
	// trips (so the client survives the death of every original entry
	// point, and discovers joined nodes without re-dialing).
	members atomic.Pointer[clientMembers]
	// view is the last decoded membership view behind members: it keeps
	// the consistent-hash ring so the client can compute file→home
	// placement itself (HomeOf) for locality-aware entry (§4.1 hand-off).
	view    atomic.Pointer[memberView]
	cfg     ClientConfig
	timeout time.Duration
	retries int
	// mu guards conns/breakers/closed. Both slices are node-ID-indexed and
	// only ever grow; a removed member keeps its slot (skipped via members).
	mu         sync.Mutex
	closed     bool
	conns      []*conn
	breakers   []*breaker
	brThresh   int
	brCooldown time.Duration
	rr         atomic.Uint32
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

	// rpcLat holds one latency histogram per request frame type, fed by
	// conn.roundTrip on every client connection.
	rpcLat [msgTypeCount]obs.Histogram
}

// clientMembers is the client's immutable membership snapshot: index =
// node ID, an empty address marks an unknown slot, alive marks slots that
// accept requests (alive or draining members).
type clientMembers struct {
	epoch uint64
	addrs []string
	alive []bool
}

// count reports how many slots currently accept requests.
func (m *clientMembers) count() int {
	n := 0
	for _, a := range m.alive {
		if a {
			n++
		}
	}
	return n
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
	c := &Client{
		cfg:      cfg,
		conns:    make([]*conn, len(addrs)),
		breakers: make([]*breaker, len(addrs)),
	}
	m := &clientMembers{
		addrs: append([]string(nil), addrs...),
		alive: make([]bool, len(addrs)),
	}
	for i := range m.alive {
		m.alive[i] = true
	}
	c.members.Store(m)
	c.timeout = cfg.RPCTimeout
	if c.timeout == 0 {
		c.timeout = defaultRPCTimeout
	}
	if c.timeout < 0 {
		c.timeout = 0
	}
	c.retries = cfg.Retries
	if c.retries == 0 {
		c.retries = defaultRetries
	}
	if c.retries < 0 {
		c.retries = 0
	}
	thresh := cfg.BreakerThreshold
	if thresh == 0 {
		thresh = defaultBreakerThreshold
	}
	cooldown := cfg.BreakerCooldown
	if cooldown <= 0 {
		cooldown = defaultBreakerCooldown
	}
	c.brThresh, c.brCooldown = thresh, cooldown
	for i := range c.breakers {
		c.breakers[i] = &breaker{threshold: thresh, cooldown: cooldown}
	}
	return c, nil
}

// growLocked extends the node-ID-indexed conns/breakers arrays to n slots.
// Callers hold c.mu.
func (c *Client) growLocked(n int) {
	for len(c.breakers) < n {
		c.conns = append(c.conns, nil)
		c.breakers = append(c.breakers, &breaker{threshold: c.brThresh, cooldown: c.brCooldown})
	}
}

// breaker returns node i's circuit breaker, growing the array if the
// membership view got ahead of it.
func (c *Client) breaker(i int) *breaker {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.growLocked(i + 1)
	return c.breakers[i]
}

func (c *Client) conn(i int) (*conn, error) {
	m := c.members.Load()
	if i < 0 || i >= len(m.addrs) || m.addrs[i] == "" {
		return nil, errPeerSuspect // unknown slot: steer elsewhere
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errConnClosed
	}
	c.growLocked(len(m.addrs))
	if cc := c.conns[i]; cc != nil {
		c.mu.Unlock()
		return cc, nil
	}
	c.mu.Unlock()

	// Dial outside the lock: every RPC the client makes, to any node, takes
	// c.mu, and a dial to an unreachable node can take a whole timeout.
	nc, err := net.DialTimeout("tcp", m.addrs[i], c.timeout)
	if err != nil {
		return nil, err
	}
	nc = c.cfg.Fault.Wrap(nc, -1, i)
	stamp := func(f *Frame) {
		f.Sender = -1
		f.OldestAge = noAge
	}
	cc := newConn(nc, connConfig{stamp: stamp, timeout: c.timeout, latency: c.observeRPCLatency})
	c.mu.Lock()
	if won := c.conns[i]; won != nil || c.closed {
		// Lost the dial race (keep the established conn) or the client
		// closed meanwhile.
		c.mu.Unlock()
		cc.close()
		if won == nil {
			return nil, errConnClosed
		}
		return won, nil
	}
	c.conns[i] = cc
	c.mu.Unlock()
	return cc, nil
}

// observeRPCLatency feeds the client's per-RPC-type latency histograms.
func (c *Client) observeRPCLatency(t MsgType, d time.Duration) {
	if int(t) < len(c.rpcLat) {
		c.rpcLat[t].Observe(d)
	}
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
	m := c.members.Load()
	n := len(m.addrs)
	c.mu.Lock()
	c.growLocked(n)
	brs := c.breakers[:n]
	c.mu.Unlock()
	for try := 0; try < n; try++ {
		i := int(c.rr.Add(1)-1) % n
		if !m.alive[i] {
			continue
		}
		if brs[i].allow() {
			return i
		}
		atomic.AddUint64(&c.fault.BreakerSkips, 1)
	}
	for try := 0; try < n; try++ {
		i := int(c.rr.Add(1)-1) % n
		if m.addrs[i] != "" {
			return i
		}
	}
	return int(c.rr.Add(1)-1) % n
}

func (c *Client) roundTrip(node int, f *Frame) (*Frame, error) {
	cc, err := c.conn(node)
	if err == nil {
		var resp *Frame
		resp, err = cc.roundTrip(f)
		if err == errConnClosed {
			// The connection died (node restart): redial once.
			c.mu.Lock()
			if c.conns[node] == cc {
				c.conns[node] = nil
			}
			c.mu.Unlock()
			if cc, err = c.conn(node); err == nil {
				resp, err = cc.roundTrip(f)
			}
		}
		if err == nil {
			c.breaker(node).success()
			return resp, nil
		}
	}
	if isTransient(err) {
		if err == errRPCTimeout {
			atomic.AddUint64(&c.fault.Timeouts, 1)
		}
		c.breaker(node).failure()
	}
	return nil, err
}

// failoverTrip runs the request against node, retrying on other nodes
// (picked round-robin through the breakers) after transient failures.
// Only idempotent requests may use it. The second return value is the
// node that actually answered. Each failover first refreshes the
// membership view (rate-limited) so retries route around members the
// cluster has declared dead and reach members that joined after dial.
func (c *Client) failoverTrip(node int, f *Frame) (*Frame, int, error) {
	resp, err := c.roundTrip(node, f)
	for attempt := 0; attempt < c.retries && isTransient(err); attempt++ {
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
	m := c.members.Load()
	var lastErr error
	for i := range m.addrs {
		if m.addrs[i] == "" || !m.alive[i] {
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
			c.installMembers(v)
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

// installMembers folds a decoded membership view into the client's
// picture if it is newer, closing connections to members now dead.
func (c *Client) installMembers(v *memberView) {
	for {
		cur := c.members.Load()
		if cur != nil && cur.epoch >= v.epoch {
			return
		}
		m := &clientMembers{
			epoch: v.epoch,
			addrs: make([]string, v.size()),
			alive: make([]bool, v.size()),
		}
		for i, mi := range v.members {
			m.addrs[i] = mi.Addr
			// Draining members still serve; only dead (and empty) slots
			// stop being entry points.
			m.alive[i] = mi.State != stateDead && mi.Addr != ""
		}
		if !c.members.CompareAndSwap(cur, m) {
			continue
		}
		c.view.Store(v)
		var dead []*conn
		c.mu.Lock()
		c.growLocked(len(m.addrs))
		for i := range m.alive {
			if !m.alive[i] && i < len(c.conns) && c.conns[i] != nil {
				dead = append(dead, c.conns[i])
				c.conns[i] = nil
			}
		}
		c.mu.Unlock()
		for _, cc := range dead {
			cc.close()
		}
		return
	}
}

// HomeOf reports the home node of file f under the client's current
// membership view — the file→node placement the cluster itself uses, so a
// serving layer can enter at the node that will own the read (the paper's
// §4.1 request hand-off done at connection time instead of after a
// misrouted hop). ok is false until RefreshMembership has installed a
// view, or when the computed home is not currently reachable.
func (c *Client) HomeOf(f block.FileID) (int, bool) {
	v := c.view.Load()
	if v == nil {
		return 0, false
	}
	h, ok := v.home(f)
	if !ok || !v.reachable(h) {
		return 0, false
	}
	m := c.members.Load()
	if m == nil || h >= len(m.alive) || !m.alive[h] {
		return 0, false
	}
	return h, true
}

// MembershipEpoch reports the epoch of the client's membership view (0
// until a refresh has installed one; the dialed address list has no
// epoch).
func (c *Client) MembershipEpoch() uint64 {
	if m := c.members.Load(); m != nil {
		return m.epoch
	}
	return 0
}

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
			c.installMembers(v)
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
	if m := c.members.Load(); node >= len(m.alive) || !m.alive[node] {
		return -1 // the sticky node left the cluster
	}
	if !c.breaker(node).allow() {
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
	m := c.members.Load()
	for i := range m.addrs {
		if m.addrs[i] == "" || !m.alive[i] {
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
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for _, cc := range c.conns {
		if cc != nil {
			cc.close()
		}
	}
}
