package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/middleware"
)

// resizeRecord is the elastic-membership scenario's outcome: one replay
// during which the cluster grew from Nodes to GrowTo members and drained
// back down, with zero client-visible errors. The interval series carries
// the per-bucket hit rate, rebalance backlog, and membership epoch, so the
// dip around each resize — and its recovery — is visible at its moment.
type resizeRecord struct {
	Nodes     int     `json:"nodes"`
	GrowTo    int     `json:"grow_to"`
	Seed      int64   `json:"seed"`
	Requests  int     `json:"requests"`
	Writes    int     `json:"writes"`
	Errors    int     `json:"errors"`
	ElapsedMS float64 `json:"elapsed_ms"`
	ReqPerSec float64 `json:"req_per_sec"`
	P50US     float64 `json:"p50_us"`
	P95US     float64 `json:"p95_us"`
	P99US     float64 `json:"p99_us"`
	HitRate   float64 `json:"hit_rate"`
	// PreGrowHitRate/FinalHitRate are the per-interval hit-rate medians of
	// the steady state before the grow and of the run's last quarter: the
	// paper's prediction is a transient dip while masters re-home, then
	// recovery to within a few points of the original rate.
	PreGrowHitRate float64 `json:"pre_grow_hit_rate"`
	FinalHitRate   float64 `json:"final_hit_rate"`
	// RebalancedBlocks counts blocks pulled across the cluster by the two
	// re-homing waves; MembershipEpoch is the final epoch (1 initial view
	// + 4 joins + 4 drains + 4 removals = 13).
	RebalancedBlocks  uint64  `json:"rebalanced_blocks"`
	MembershipEpoch   uint64  `json:"membership_epoch"`
	HeartbeatFailures uint64  `json:"heartbeat_failures"`
	HomeFallbacks     uint64  `json:"home_fallbacks"`
	GrowMS            float64 `json:"grow_ms"`
	DrainMS           float64 `json:"drain_ms"`
	faultCounters
	Intervals []loadgen.Interval `json:"intervals,omitempty"`
}

// runResize replays a read-heavy trace against a four-node ring cluster
// and resizes it twice mid-replay with zero client-visible errors: at ~1/4
// of the stream four joiners enter (each Join pulls its slice of every
// file's blocks from the previous homes), and at ~2/3 the four joiners
// drain — survivors pull their slices back, the coordinator removes them,
// and their processes exit. The replay never pauses; the hit-rate series
// in the record shows the paper-predicted dip and recovery around each
// membership wave.
func runResize(out string, requests, concurrency int, seed int64, interval time.Duration) error {
	const (
		baseNodes = 4
		growTo    = 8
		capacity  = 512
		files     = 200
		avgSize   = 16384
	)
	sizes := fileSizes(files, avgSize)
	mut := func(i int, cfg *middleware.Config) {
		cfg.RPCTimeout = time.Second
		cfg.Retries = 2
		// Heartbeats double as view anti-entropy: a member that missed a
		// best-effort view broadcast converges off its next ping exchange.
		cfg.HeartbeatInterval = 50 * time.Millisecond
	}
	_, addrs, shutdown, err := startCluster(baseNodes, capacity, sizes, mut)
	if err != nil {
		return fmt.Errorf("resize: %w", err)
	}
	defer shutdown()
	client, err := middleware.DialClusterConfig(addrs, middleware.ClientConfig{
		RPCTimeout: 2 * time.Second,
		Retries:    3,
	})
	if err != nil {
		return fmt.Errorf("resize: %w", err)
	}
	defer client.Close()

	tr := buildTrace(files, sizes, requests, 0.85, avgSize, seed)
	growAt := len(tr.Requests) / 4
	drainAt := 2 * len(tr.Requests) / 3

	var joiners []*middleware.Node
	defer func() {
		for _, n := range joiners {
			n.Close()
		}
	}()
	var growDur, drainDur time.Duration
	var hookErr error

	grow := func() {
		start := time.Now()
		log.Printf("resize: growing %d→%d at request %d", baseNodes, growTo, growAt)
		for id := baseNodes; id < growTo; id++ {
			n, err := middleware.Start(middleware.Config{
				ID: id, CapacityBlocks: capacity, Policy: core.PolicyMaster,
				Source:            middleware.NewMemSource(block.DefaultGeometry, sizes),
				RPCTimeout:        time.Second,
				Retries:           2,
				HeartbeatInterval: 50 * time.Millisecond,
			})
			if err != nil {
				hookErr = fmt.Errorf("start joiner %d: %w", id, err)
				return
			}
			joiners = append(joiners, n)
			if err := n.Join(addrs[0]); err != nil {
				hookErr = fmt.Errorf("join node %d: %w", id, err)
				return
			}
		}
		if err := client.RefreshMembership(); err != nil {
			hookErr = fmt.Errorf("refresh after grow: %w", err)
			return
		}
		growDur = time.Since(start)
		log.Printf("resize: grew to %d members in %v (epoch %d)", growTo, growDur.Round(time.Millisecond), client.MembershipEpoch())
	}

	drain := func() {
		start := time.Now()
		log.Printf("resize: draining back to %d at request %d", baseNodes, drainAt)
		for id := baseNodes; id < growTo; id++ {
			if err := client.DrainNode(id); err != nil {
				hookErr = fmt.Errorf("drain node %d: %w", id, err)
				return
			}
		}
		// Survivors pull the drained slices back; the drained members keep
		// serving until the backlog is gone, so no request ever errors.
		deadline := time.Now().Add(60 * time.Second)
		for {
			st, err := client.ClusterStats()
			if err == nil && st.RebalancePending == 0 {
				break
			}
			if time.Now().After(deadline) {
				hookErr = fmt.Errorf("drain rebalance never settled")
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		for i, n := range joiners {
			id := baseNodes + i
			if err := client.RemoveNode(id); err != nil {
				hookErr = fmt.Errorf("remove node %d: %w", id, err)
				return
			}
			n.Close()
		}
		joiners = nil
		if err := client.RefreshMembership(); err != nil {
			hookErr = fmt.Errorf("refresh after drain: %w", err)
			return
		}
		drainDur = time.Since(start)
		log.Printf("resize: drained to %d members in %v (epoch %d)", baseNodes, drainDur.Round(time.Millisecond), client.MembershipEpoch())
	}

	res, err := loadgen.Replay(client, tr, loadgen.Config{
		Concurrency: concurrency,
		WarmupFrac:  0.1,
		WriteFrac:   0.05,
		Interval:    interval,
		Breakpoints: []loadgen.Breakpoint{{Index: growAt, Fn: grow}, {Index: drainAt, Fn: drain}},
	})
	if err != nil {
		return fmt.Errorf("resize: client-visible failure: %w", err)
	}
	if hookErr != nil {
		return fmt.Errorf("resize: %w", hookErr)
	}
	fmt.Println(res)

	st := res.Cluster
	if res.Errors != 0 {
		return fmt.Errorf("resize: %d client-visible errors", res.Errors)
	}
	if st.RebalancedBlocks == 0 {
		return fmt.Errorf("resize: no blocks rebalanced across two membership waves")
	}
	if st.MembershipEpoch < 13 {
		return fmt.Errorf("resize: final epoch %d, want ≥13 (4 joins + 4 drains + 4 removals)", st.MembershipEpoch)
	}

	pre, final := hitRateRecovery(res.Intervals)
	if pre >= 0 && final >= 0 {
		log.Printf("resize: hit rate pre-grow %.1f%% → final %.1f%% (recovery gap %.1f pts)",
			pre*100, final*100, (pre-final)*100)
		if final < pre-0.05 {
			return fmt.Errorf("resize: hit rate never recovered: pre-grow %.1f%%, final %.1f%% (>5pt gap)", pre*100, final*100)
		}
	} else {
		log.Printf("resize: run too short for a hit-rate recovery verdict (need ≥2 valid buckets per side)")
	}

	doc := loadBenchDoc(out)
	doc.Resize = &resizeRecord{
		Nodes:             baseNodes,
		GrowTo:            growTo,
		Seed:              seed,
		Requests:          res.Requests,
		Writes:            res.Writes,
		Errors:            res.Errors,
		ElapsedMS:         float64(res.Elapsed) / float64(time.Millisecond),
		ReqPerSec:         res.Throughput,
		P50US:             float64(res.P50) / float64(time.Microsecond),
		P95US:             float64(res.P95) / float64(time.Microsecond),
		P99US:             float64(res.P99) / float64(time.Microsecond),
		HitRate:           st.HitRate(),
		PreGrowHitRate:    pre,
		FinalHitRate:      final,
		RebalancedBlocks:  st.RebalancedBlocks,
		MembershipEpoch:   st.MembershipEpoch,
		HeartbeatFailures: st.HeartbeatFailures,
		HomeFallbacks:     st.HomeFallbacks,
		GrowMS:            float64(growDur) / float64(time.Millisecond),
		DrainMS:           float64(drainDur) / float64(time.Millisecond),
		faultCounters:     faultCountersOf(res),
		Intervals:         res.Intervals,
	}
	return writeBenchDoc(out, doc)
}

// hitRateRecovery extracts the steady-state hit rate before the grow (the
// buckets still at the initial epoch) and the median over the run's last
// quarter. Either is -1 when fewer than two valid buckets support it.
func hitRateRecovery(ivs []loadgen.Interval) (pre, final float64) {
	pre, final = -1, -1
	if len(ivs) == 0 {
		return
	}
	firstEpoch := ivs[0].MembershipEpoch
	var preRates, finalRates []float64
	for i, iv := range ivs {
		if iv.HitRate < 0 {
			continue
		}
		if iv.MembershipEpoch == firstEpoch {
			preRates = append(preRates, iv.HitRate)
		}
		if i >= 3*len(ivs)/4 {
			finalRates = append(finalRates, iv.HitRate)
		}
	}
	if len(preRates) >= 2 {
		pre = median(preRates)
	}
	if len(finalRates) >= 2 {
		final = median(finalRates)
	}
	return
}

func median(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted[len(sorted)/2]
}
