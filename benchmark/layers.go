package main

import (
	"runtime"
	"time"

	"repro/internal/httpfront"
	"repro/internal/middleware"
	"repro/internal/obs"
)

// snapshot is every counter the program and the benchmark's wrappers expose,
// read at one instant. Per-layer metrics are differences of two snapshots
// taken around the traced window.
type snapshot struct {
	cluster   middleware.Stats
	clientRPC map[string]obs.HistogramData
	faults    middleware.ClientFaultStats
	gateway   httpfront.GatewayStats
	source    sourceStats
	mem       runtime.MemStats
}

func (e *env) snapshot() (snapshot, error) {
	var s snapshot
	var err error
	if s.cluster, err = e.cl.control.ClusterStats(); err != nil {
		return s, err
	}
	s.clientRPC = e.cl.client.RPCLatency()
	s.faults = e.cl.client.FaultStats()
	s.gateway = e.cl.gateway.Stats()
	for _, src := range e.cl.sources {
		st := src.snapshot()
		s.source.Reads += st.Reads
		s.source.Writes += st.Writes
		s.source.BusyNanos += st.BusyNanos
		s.source.Distinct += st.Distinct // homes are disjoint, so the sets are
	}
	runtime.ReadMemStats(&s.mem)
	return s, nil
}

// maxBacklog reports the deepest unacknowledged invalidation backlog over
// the nodes right now.
func (e *env) maxBacklog() uint64 {
	var deepest uint64
	for _, n := range e.cl.nodes {
		deepest = max(deepest, n.Stats().InvalBacklog)
	}
	return deepest
}

// histDelta is the histogram of the observations made between two
// snapshots, merged over the named RPC types.
func histDelta(before, after map[string]obs.HistogramData, names ...string) obs.HistogramData {
	var d obs.HistogramData
	d.Buckets = make([]uint64, obs.HistBuckets+1)
	for _, name := range names {
		a, b := after[name], before[name]
		for i, c := range a.Buckets {
			if i < len(b.Buckets) {
				c -= b.Buckets[i]
			}
			d.Buckets[i] += c
			d.Count += c
		}
		d.SumNanos += a.SumNanos - b.SumNanos
	}
	return d
}

// rpcTypes lists the RPC types a snapshot has observations for.
func rpcTypes(m map[string]obs.HistogramData) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	return names
}

// quantileUS estimates the q-quantile of a log-bucketed histogram in
// microseconds, interpolating linearly inside the bucket that holds the
// rank: finer than the bucket's upper bound, which doubles per bucket.
func quantileUS(d obs.HistogramData, q float64) float64 {
	if d.Count == 0 {
		return 0
	}
	rank := q * float64(d.Count)
	var cum float64
	for i, c := range d.Buckets {
		if c == 0 || cum+float64(c) < rank {
			cum += float64(c)
			continue
		}
		hi := float64(obs.BucketBound(min(i, obs.HistBuckets-1))) / float64(time.Microsecond)
		lo := 0.0
		if i > 0 {
			lo = hi / 2
		}
		return lo + (hi-lo)*(rank-cum)/float64(c)
	}
	return float64(obs.BucketBound(obs.HistBuckets-1)) / float64(time.Microsecond)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tracedRun is everything the per-layer metrics are computed from.
type tracedRun struct {
	ref, win      windowResult // untraced reference window, traced window
	before, after snapshot
	spans         []span
	backlogMax    uint64
	flush         time.Duration
	stale         int // (block, entry) pairs behind the last write after the flush
	goroutines    int
}

// perLayerMetrics turns a traced run into the per-layer table. Counters are
// differences over the traced window; ratios are per request (reads and
// writes) of that window.
func perLayerMetrics(w workload, t tracedRun) map[string]float64 {
	m := make(map[string]float64)
	a, b := t.after, t.before
	reqs := float64(t.win.ops())
	secs := t.win.Elapsed.Seconds()
	d := func(after, before uint64) float64 { return float64(after - before) }
	us := func(ns float64) float64 { return ns / 1e3 }

	// httpfront
	if w.HTTP {
		m["httpfront.serve_us_p50"] = us(median(durations(t.spans, "httpfront.serve")))
		m["httpfront.serve_us_p99"] = us(percentile(durations(t.spans, "httpfront.serve"), 0.99))
		m["httpfront.socket_self_us_p50"] = us(median(selfTimes(t.spans, "read")))
	}
	gwReqs := d(a.gateway.Requests, b.gateway.Requests)
	m["httpfront.handoff_ratio"] = ratio(d(a.gateway.Handoffs, b.gateway.Handoffs), gwReqs)
	m["httpfront.bytes_per_req"] = ratio(d(a.gateway.BytesServed, b.gateway.BytesServed), gwReqs)

	// client
	clientAll := histDelta(b.clientRPC, a.clientRPC, rpcTypes(a.clientRPC)...)
	m["client.rpcs_per_req"] = ratio(float64(clientAll.Count), reqs)
	m["client.read_range_rpcs_per_req"] = ratio(float64(histDelta(b.clientRPC, a.clientRPC, "read_range").Count), reqs)
	m["client.rpc_us_p50"] = quantileUS(clientAll, 0.5)
	m["client.failovers"] = d(a.faults.Failovers, b.faults.Failovers)
	m["client.timeouts"] = d(a.faults.Timeouts, b.faults.Timeouts)

	// node
	ac, bc := a.cluster, b.cluster
	accesses := d(ac.Accesses, bc.Accesses)
	m["node.accesses_per_req"] = ratio(accesses, reqs)
	m["node.local_hit_ratio"] = ratio(d(ac.LocalHits, bc.LocalHits), accesses)
	m["node.remote_hit_ratio"] = ratio(d(ac.RemoteHits, bc.RemoteHits), accesses)
	m["node.disk_ratio"] = ratio(d(ac.DiskReads, bc.DiskReads), accesses)
	m["node.race_misses_per_kreq"] = ratio(1000*d(ac.RaceMisses, bc.RaceMisses), reqs)
	m["node.runs_issued_per_req"] = ratio(d(ac.RunsIssued, bc.RunsIssued), reqs)
	m["node.runs_degraded_ratio"] = ratio(d(ac.RunsDegraded, bc.RunsDegraded), d(ac.RunsIssued, bc.RunsIssued))

	// dir
	lookups := histDelta(bc.RPCLatency, ac.RPCLatency, "dir_lookup", "dir_lookup_n")
	updates := histDelta(bc.RPCLatency, ac.RPCLatency, "dir_update", "dir_update_n", "dir_drop")
	m["dir.lookup_rpcs_per_req"] = ratio(float64(lookups.Count), reqs)
	m["dir.update_rpcs_per_req"] = ratio(float64(updates.Count), reqs)
	m["dir.lookup_us_p50"] = quantileUS(lookups, 0.5)
	m["dir.lookup_us_p99"] = quantileUS(lookups, 0.99)

	// peer
	getRun := histDelta(bc.RPCLatency, ac.RPCLatency, "get_run")
	m["peer.get_run_us_p50"] = quantileUS(getRun, 0.5)
	m["peer.get_run_us_p99"] = quantileUS(getRun, 0.99)
	m["peer.get_block_us_p50"] = quantileUS(histDelta(bc.RPCLatency, ac.RPCLatency, "get_block"), 0.5)
	peerAll := histDelta(bc.RPCLatency, ac.RPCLatency, rpcTypes(ac.RPCLatency)...)
	m["peer.rpcs_per_req"] = ratio(float64(peerAll.Count), reqs)
	m["peer.timeouts"] = d(ac.RPCTimeouts, bc.RPCTimeouts)
	m["peer.retries"] = d(ac.RPCRetries, bc.RPCRetries)
	m["peer.failures"] = d(ac.RPCFailures, bc.RPCFailures)
	m["peer.home_fallbacks"] = d(ac.HomeFallbacks, bc.HomeFallbacks)
	m["peer.stale_drops"] = d(ac.StaleDrops, bc.StaleDrops)

	// store
	forwards := d(ac.Forwards, bc.Forwards)
	m["store.forwards_per_kreq"] = ratio(1000*forwards, reqs)
	m["store.forward_reject_ratio"] = ratio(d(ac.ForwardsRejected, bc.ForwardsRejected), forwards)
	m["store.fill_ratio"] = float64(ac.StoreLen) / float64(clusterNodes*capacityBlocks)
	m["store.master_ratio"] = ratio(float64(ac.StoreMasters), float64(ac.StoreLen))

	// source
	srcReads := d(a.source.Reads, b.source.Reads)
	m["source.reads_per_kreq"] = ratio(1000*srcReads, reqs)
	m["source.writes_per_kreq"] = ratio(1000*d(a.source.Writes, b.source.Writes), reqs)
	m["source.read_us_p50"] = us(median(durations(t.spans, "source.read")))
	m["source.busy_ms_per_s"] = float64(a.source.BusyNanos-b.source.BusyNanos) / 1e6 / secs
	m["source.distinct_ratio"] = ratio(float64(a.source.Distinct), srcReads)

	// inval
	writes := d(ac.Writes, bc.Writes)
	m["inval.write_us_p50"] = us(median(t.win.WriteLat))
	m["inval.write_us_p99"] = us(percentile(t.win.WriteLat, 0.99))
	m["inval.write_rpc_us_p50"] = quantileUS(histDelta(b.clientRPC, a.clientRPC, "write_block"), 0.5)
	m["inval.invalidations_per_write"] = ratio(d(ac.Invalidations, bc.Invalidations), writes)
	m["inval.batched_per_write"] = ratio(d(ac.InvalBatched, bc.InvalBatched), writes)
	m["inval.catchups"] = d(ac.InvalCatchups, bc.InvalCatchups)
	m["inval.backlog_max"] = float64(t.backlogMax)
	m["inval.flush_ms"] = float64(t.flush) / 1e6
	m["inval.stale_after_flush"] = float64(t.stale)

	// proc
	m["proc.cpu_user_share"] = ratio(float64(t.win.UserCPU), float64(t.win.CPU))
	m["proc.allocs_per_req"] = ratio(d(a.mem.Mallocs, b.mem.Mallocs), reqs)
	m["proc.alloc_kb_per_req"] = ratio(d(a.mem.TotalAlloc, b.mem.TotalAlloc)/1024, reqs)
	m["proc.gc_pause_ms_per_s"] = d(a.mem.PauseTotalNs, b.mem.PauseTotalNs) / 1e6 / secs
	m["proc.goroutines"] = float64(t.goroutines)

	// gen
	m["gen.read_p99_us"] = us(percentile(t.win.ReadLat, 0.99))
	m["gen.read_p999_us"] = us(percentile(t.win.ReadLat, 0.999))
	m["gen.trace_overhead_ratio"] = ratio(t.win.reqPerSec(), t.ref.reqPerSec())
	return m
}

// endToEndMetrics turns an untraced window and the set-up times into the
// end-to-end table. Each metric is the median over the window's slices.
func endToEndMetrics(win windowResult, setups []float64) map[string]float64 {
	over := func(f func(sliceResult) float64) float64 {
		v := make([]float64, len(win.Slices))
		for i, sl := range win.Slices {
			v[i] = f(sl)
		}
		return median(v)
	}
	return map[string]float64{
		"setup_s":        median(setups),
		"req_per_s":      over(func(sl sliceResult) float64 { return float64(sl.Ops) / sl.Seconds }),
		"read_p50_us":    over(func(sl sliceResult) float64 { return sl.ReadP50 / 1e3 }),
		"read_p95_us":    over(func(sl sliceResult) float64 { return sl.ReadP95 / 1e3 }),
		"cpu_ms_per_req": over(func(sl sliceResult) float64 { return ratio(float64(sl.CPU)/1e6, float64(sl.Ops)) }),
		"rss_mb":         over(func(sl sliceResult) float64 { return float64(sl.RSSBytes) / (1 << 20) }),
	}
}
