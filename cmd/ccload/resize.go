package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/middleware"
	"repro/internal/obs"
)

// runResize replays a read-heavy trace against a four-node ring cluster
// and resizes it twice mid-replay with zero client-visible errors: at ~1/4
// of the stream four joiners enter (each Join pulls its slice of every
// file's blocks from the previous homes), and at ~2/3 the four joiners
// drain — survivors pull their slices back, the coordinator removes them,
// and their processes exit. The replay never pauses. The verdict compares
// the hit rate of the base nodes before the grow with theirs after the
// drain: the paper predicts a dip while masters re-home, then recovery.
func runResize(requests, concurrency int, seed int64) error {
	const (
		baseNodes  = 4
		growTo     = 8
		capacity   = 512
		files      = 200
		avgSize    = 16384
		warmupFrac = 0.1
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
	warmAt := int(warmupFrac * float64(len(tr.Requests)))
	growAt := len(tr.Requests) / 4
	drainAt := 2 * len(tr.Requests) / 3

	var joiners []*middleware.Node
	defer func() {
		for _, n := range joiners {
			n.Close()
		}
	}()
	// The hooks run on whichever workers draw their indexes; hookMu keeps
	// them from overlapping and orders their writes before the checks.
	var (
		hookMu  sync.Mutex
		hookErr error
		// Cluster snapshots bounding the verdict's two spans: warm-up end to
		// grow start (the base nodes before any joiner) and drain end to
		// replay end (the base nodes after every joiner left).
		atWarm, atGrow, atDrained middleware.Stats
	)
	snapshot := func(into *middleware.Stats) {
		st, err := client.ClusterStats()
		if err != nil {
			hookErr = fmt.Errorf("cluster stats: %w", err)
		}
		*into = st
	}

	warm := func() {
		hookMu.Lock()
		defer hookMu.Unlock()
		snapshot(&atWarm)
	}

	grow := func() {
		hookMu.Lock()
		defer hookMu.Unlock()
		snapshot(&atGrow)
		if hookErr != nil {
			return
		}
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
		log.Printf("resize: grew to %d members in %v (epoch %d)", growTo, time.Since(start).Round(time.Millisecond), client.MembershipEpoch())
	}

	drain := func() {
		hookMu.Lock()
		defer hookMu.Unlock()
		if hookErr != nil {
			return
		}
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
		log.Printf("resize: drained to %d members in %v (epoch %d)", baseNodes, time.Since(start).Round(time.Millisecond), client.MembershipEpoch())
		snapshot(&atDrained)
	}

	res, err := loadgen.Replay(client, tr, loadgen.Config{
		Concurrency: concurrency,
		WarmupFrac:  warmupFrac,
		WriteFrac:   0.05,
		Breakpoints: []loadgen.Breakpoint{{Index: warmAt, Fn: warm}, {Index: growAt, Fn: grow}, {Index: drainAt, Fn: drain}},
	})
	if err != nil {
		return fmt.Errorf("resize: client-visible failure: %w", err)
	}
	if hookErr != nil {
		return fmt.Errorf("resize: %w", hookErr)
	}
	fmt.Println(res)

	st := res.Cluster
	if st.RebalancedBlocks == 0 {
		return fmt.Errorf("resize: no blocks rebalanced across two membership waves")
	}
	if st.MembershipEpoch < 13 {
		return fmt.Errorf("resize: final epoch %d, want ≥13 (4 joins + 4 drains + 4 removals)", st.MembershipEpoch)
	}

	pre, err := spanHitRate(atWarm, atGrow)
	if err != nil {
		return fmt.Errorf("resize: warm-up to grow: %w", err)
	}
	final, err := spanHitRate(atDrained, st)
	if err != nil {
		return fmt.Errorf("resize: drain to end: %w", err)
	}
	log.Printf("resize: hit rate pre-grow %.1f%% → final %.1f%% (recovery gap %.1f pts)",
		pre*100, final*100, (pre-final)*100)
	if final < pre-0.05 {
		return fmt.Errorf("resize: hit rate never recovered: pre-grow %.1f%%, final %.1f%% (>5pt gap)", pre*100, final*100)
	}
	return nil
}

// spanHitRate is the hit rate over the block accesses between two cluster
// snapshots taken over the same nodes.
func spanHitRate(from, to middleware.Stats) (float64, error) {
	if to.Accesses <= from.Accesses {
		return 0, fmt.Errorf("no block accesses between the snapshots")
	}
	return obs.Delta(to, from).HitRate(), nil
}
