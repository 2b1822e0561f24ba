package middleware

import (
	"time"

	"repro/internal/obs"
)

// Counts declares the node's counters, each once: its Prometheus name and
// help text sit in its tag, and Stats, ClusterStats, /metrics and the stats
// printouts are derived from them (see obs). A node bumps them with
// atomic.AddUint64.
type Counts struct {
	Accesses         uint64 `metric:"cc_accesses_total" help:"block accesses through the cooperative cache"`
	LocalHits        uint64 `metric:"cc_local_hits_total" help:"accesses served from the local cache"`
	RemoteHits       uint64 `metric:"cc_remote_hits_total" help:"accesses served from a peer's cache"`
	DiskReads        uint64 `metric:"cc_disk_reads_total" help:"accesses served from the backing store"`
	RaceMisses       uint64 `metric:"cc_race_misses_total" help:"located masters that vanished before the fetch"`
	Forwards         uint64 `metric:"cc_forwards_total" help:"evicted masters a peer forwarded here that this node accepted"`
	ForwardsRejected uint64 `metric:"cc_forwards_rejected_total" help:"evicted masters this node refused as forwards, or could not forward"`
	Invalidations    uint64 `metric:"cc_invalidations_total" help:"blocks invalidated by the write protocol"`
	Writes           uint64 `metric:"cc_writes_total" help:"write operations handled"`
	// Fault tolerance: see the Failure model section of DESIGN.md.
	RPCTimeouts     uint64 `metric:"cc_rpc_timeouts_total" help:"round trips that missed the RPC deadline"`
	RPCRetries      uint64 `metric:"cc_rpc_retries_total" help:"retry attempts after transient failures"`
	RPCFailures     uint64 `metric:"cc_rpc_failures_total" help:"RPCs failed after exhausting retries"`
	BreakerOpens    uint64 `metric:"cc_breaker_opens_total" help:"circuit breaker transitions into the open state"`
	BreakerSkips    uint64 `metric:"cc_breaker_skips_total" help:"requests failed fast by an open breaker"`
	HomeFallbacks   uint64 `metric:"cc_home_fallbacks_total" help:"peer fetches degraded to the home node"`
	StaleDrops      uint64 `metric:"cc_stale_drops_total" help:"directory entries dropped after peer failures"`
	InvalidateSkips uint64 `metric:"cc_invalidate_skips_total" help:"invalidations degraded to 'peer holds no cache'"`
	// Runs: see the Run-granular reads section of DESIGN.md.
	RunsIssued   uint64 `metric:"cc_runs_total" help:"MsgGetRun fetches issued by the read planner"`
	RunsDegraded uint64 `metric:"cc_runs_degraded_total" help:"run fetches that served fewer blocks than asked"`
	// Invalidation bus: see the Write path & invalidation bus section.
	InvalBatched uint64 `metric:"cc_inval_batched_total" help:"invalidation records delivered via batched bus frames"`
	// InvalCatchups counts the windows a receiver refused as gaps plus the
	// truncated windows it flushed its cache on.
	InvalCatchups uint64 `metric:"cc_inval_catchups_total" help:"invalidation catch-up reconciliations started"`
	// Membership: see the Elastic membership section.
	RebalancedBlocks  uint64 `metric:"cc_rebalance_blocks_total" help:"blocks pulled here by home re-assignment"`
	HeartbeatFailures uint64 `metric:"cc_heartbeat_failures_total" help:"heartbeat probes that failed"`
}

// Gauges declares the node's levels, computed when read (Node.gauges).
// ClusterStats reports the deepest backlog and the newest epoch, and sums
// the rest.
type Gauges struct {
	InvalBacklog     uint64 `metric:"cc_inval_bus_depth,gauge" agg:"max" help:"deepest unacknowledged invalidation backlog across peers"`
	MembershipEpoch  uint64 `metric:"cc_membership_epoch,gauge" agg:"max" help:"current membership view epoch"`
	RebalancePending uint64 `metric:"cc_rebalance_pending,gauge" help:"files whose re-homing pull has not completed"`
	StoreLen         int    `metric:"cc_store_blocks,gauge" help:"blocks currently cached"`
	StoreMasters     int    `metric:"cc_store_masters,gauge" help:"master copies currently cached"`
}

// Stats is a snapshot of a node's behaviour (JSON-encodable for the
// MsgStats RPC).
type Stats struct {
	Node int
	Counts
	Gauges
	// RPCLatency holds the node's per-RPC-type latency histograms, keyed by
	// the request frame type's metric name (only types with observations).
	// ClusterStats merges them bucket-wise across nodes.
	RPCLatency map[string]obs.HistogramData `json:",omitempty"`
}

// HitRate is the fraction of block accesses served from cluster memory.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.LocalHits+s.RemoteHits) / float64(s.Accesses)
}

// add folds node stats o into the cluster aggregate s: declared fields by
// their aggregation rule, latency histograms bucket-wise.
func (s Stats) add(o Stats) Stats {
	s = obs.Sum(s, o)
	for k, h := range o.RPCLatency {
		if s.RPCLatency == nil {
			s.RPCLatency = make(map[string]obs.HistogramData)
		}
		m := s.RPCLatency[k]
		m.Merge(h)
		s.RPCLatency[k] = m
	}
	return s
}

// gauges reads the node's levels.
func (n *Node) gauges() Gauges {
	g := Gauges{
		RebalancePending: uint64(n.migrCount.Load()),
		StoreLen:         n.store.Len(),
		StoreMasters:     n.store.Masters(),
	}
	if b := n.busRef(); b != nil {
		g.InvalBacklog = b.depth()
	}
	if v := n.viewRef(); v != nil {
		g.MembershipEpoch = v.epoch
	}
	return g
}

// Stats snapshots the node's counters and gauges.
func (n *Node) Stats() Stats {
	return Stats{Node: n.cfg.ID, Counts: obs.Snapshot(&n.c), Gauges: n.gauges(), RPCLatency: latencies(&n.rpcLat)}
}

// rpcLatency holds one round-trip latency histogram per request frame
// type, fed by conn.roundTrip on a node's or a client's conns.
type rpcLatency [msgTypeCount]obs.Histogram

// observe records one round trip (two atomic adds).
func (h *rpcLatency) observe(t MsgType, d time.Duration) {
	if int(t) < len(h) {
		h[t].Observe(d)
	}
}

// latencies snapshots per-RPC-type latency histograms, keyed by metric
// name (only types with observations).
func latencies(h *rpcLatency) map[string]obs.HistogramData {
	out := make(map[string]obs.HistogramData)
	for t := range h {
		if d := h[t].Snapshot(); d.Count > 0 {
			out[MsgType(t).metricName()] = d
		}
	}
	return out
}

// RegisterMetrics registers the node's counters, gauges, and per-RPC-type
// latency histograms with r under cc_-prefixed Prometheus names (ccnode
// -metrics-addr serves them on /metrics).
func (n *Node) RegisterMetrics(r *obs.Registry) {
	obs.Register(r, &n.c)
	r.ValueHistogram("cc_run_blocks", "blocks served per run fetch", "", &n.runBlocks)
	r.Histogram("cc_inval_lag_seconds", "publish-to-ack latency of invalidation records", "", &n.invalLag)
	r.ValueHistogram("cc_inval_batch_blocks", "records per delivered invalidation batch", "", &n.invalBatchBlocks)
	obs.RegisterFunc(r, n.gauges)
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
// series pre-registered for the per-RPC-type latency histograms. The
// one-way MsgDirDrop and MsgForward wait on no reply and have no series.
var requestMsgTypes = []MsgType{
	MsgReadFile, MsgReadRange, MsgWriteBlock,
	MsgPutBlock, MsgStats, MsgTrace, MsgGetRun, MsgInvalidateN,
	MsgPing, MsgView, MsgViewUpdate, MsgJoin, MsgDrain,
}
