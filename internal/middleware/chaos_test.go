package middleware

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
)

// TestBreakerLifecycle pins the circuit breaker state machine: closed →
// open after threshold consecutive failures, fail-fast while open, one
// half-open probe after the cooldown, closed again on probe success.
func TestBreakerLifecycle(t *testing.T) {
	b := &breaker{threshold: 2, cooldown: 50 * time.Millisecond}
	if !b.allow() {
		t.Fatal("fresh breaker should allow")
	}
	if b.failure() {
		t.Fatal("first failure must not open the circuit")
	}
	if !b.failure() {
		t.Fatal("threshold-th failure must report the open transition")
	}
	if b.allow() {
		t.Fatal("open breaker within cooldown should reject")
	}
	time.Sleep(60 * time.Millisecond)
	if !b.allow() {
		t.Fatal("cooldown elapsed: one half-open probe should be admitted")
	}
	if b.allow() {
		t.Fatal("second concurrent probe should be rejected")
	}
	b.success()
	if !b.allow() || !b.allow() {
		t.Fatal("successful probe should close the circuit")
	}
	// A failed probe re-arms the cooldown.
	b.failure()
	b.failure()
	time.Sleep(60 * time.Millisecond)
	if !b.allow() {
		t.Fatal("probe after re-open should be admitted")
	}
	b.failure()
	if b.allow() {
		t.Fatal("failed probe must re-arm the cooldown")
	}
}

// TestFaultPlanDeterministic verifies that the same plan produces the same
// per-connection fault decisions across runs (the seeded part of "seeded,
// deterministic fault injection").
func TestFaultPlanDeterministic(t *testing.T) {
	decisions := func() []faultAction {
		p := &FaultPlan{Seed: 99, DropProb: 0.2, CrashProb: 0.1, DelayProb: 0.3}
		fc := p.Wrap(nil, 1, 2).(*faultConn)
		out := make([]faultAction, 64)
		for i := range out {
			out[i] = fc.decide()
		}
		return out
	}
	a, b := decisions(), decisions()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across identically seeded plans: %v vs %v", i, a[i], b[i])
		}
	}

	// The retry backoff draws its jitter from a per-node seeded stream, not
	// the global math/rand: two nodes built with the same ID and fault seed
	// must produce identical jitter sequences (and so identical retry
	// timing), run after run.
	jitters := func() []time.Duration {
		id := int64(3) // node ID + 1
		seed := id * 0x5851F42D4C957F2D
		seed ^= 99 // the fault plan's seed, as Node.Start folds it in
		rng := newLockedRand(seed)
		out := make([]time.Duration, 64)
		step := defaultRetryBackoff
		for i := range out {
			out[i] = backoffJitter(step, rng)
		}
		return out
	}
	ja, jb := jitters(), jitters()
	for i := range ja {
		if ja[i] != jb[i] {
			t.Fatalf("backoff jitter %d differs across identically seeded nodes: %v vs %v", i, ja[i], jb[i])
		}
	}
}

// TestWriteWithSlowPeerReturnsBeforeAck is what the invalidation bus is
// for: one peer delays every frame it sends by a second, and a write must
// not wait for it. A write through a healthy entry to a file homed on a
// healthy node returns while the slow peer has not yet acknowledged the
// invalidation; once the writer's bus has drained, the slow peer's old copy
// is gone and a read through it returns the new bytes.
func TestWriteWithSlowPeerReturnsBeforeAck(t *testing.T) {
	const slow = 3
	f := homedAt(4, 0) // one block, homed on a healthy node
	sizes := map[block.FileID]int64{f: 1024}
	nodes, _ := startCluster(t, 4, 64, sizes, func(i int, cfg *Config) {
		if i == slow {
			cfg.Fault = &FaultPlan{Seed: 1, DelayProb: 1, Delay: time.Second}
		}
	})

	id := block.ID{File: f, Idx: 0}
	if _, err := nodes[slow].GetBlock(id); err != nil {
		t.Fatalf("prime read via the slow peer: %v", err)
	}
	if !nodes[slow].store.Contains(id) {
		t.Fatal("the slow peer should hold a copy before the write")
	}

	newBlock := bytes.Repeat([]byte{0xCD}, 1024)
	start := time.Now()
	if err := nodes[1].WriteBlock(id, newBlock); err != nil {
		t.Fatalf("write with a slow peer: %v", err)
	}
	elapsed := time.Since(start)
	if backlog := busBacklog(nodes[1], slow); backlog == 0 {
		t.Fatalf("the write returned after %v with its invalidation already acknowledged by the slow peer: it waited for that peer", elapsed)
	}
	t.Logf("write returned in %v, slow peer's acknowledgement still outstanding", elapsed)

	if !nodes[1].FlushInval(10 * time.Second) {
		t.Fatal("the writer's bus toward the slow peer never drained")
	}
	got, err := nodes[slow].GetBlock(id)
	if err != nil {
		t.Fatalf("read via the slow peer after the flush: %v", err)
	}
	if !bytes.Equal(got, newBlock) {
		t.Fatal("the slow peer served its old copy after the writer's bus drained")
	}
}

// busBacklog is the number of n's published invalidation records that peer
// has not acknowledged.
func busBacklog(n *Node, peer int) uint64 {
	b := n.busRef()
	b.mu.Lock()
	head, senders := b.head, b.senders
	b.mu.Unlock()
	for _, s := range senders {
		if s.peer == peer {
			return head - min(s.acked.Load(), head)
		}
	}
	return 0
}

// TestWriteWithCrashedPeerSucceeds crashes one holder of a cached copy and
// verifies the §6 write still completes: the fan-out reaches every live
// peer (their copies are invalidated), the dead peer is degraded to "holds
// no cache", and readers observe the new content afterwards.
func TestWriteWithCrashedPeerSucceeds(t *testing.T) {
	f := homedAt(4, 0) // the home survives the crash
	sizes := map[block.FileID]int64{f: 2048}
	nodes, client := startCluster(t, 4, 64, sizes, func(i int, cfg *Config) {
		cfg.RPCTimeout = 300 * time.Millisecond
		cfg.Retries = 1
	})

	// Replicate the file's blocks onto nodes 1..3.
	for entry := 1; entry < 4; entry++ {
		if _, err := client.ReadVia(entry, f); err != nil {
			t.Fatalf("prime read via %d: %v", entry, err)
		}
	}
	id := block.ID{File: f, Idx: 0}
	if !nodes[3].store.Contains(id) {
		t.Fatal("node 3 should hold a copy before the crash")
	}

	nodes[3].Close() // crash one copy holder

	newBlock := bytes.Repeat([]byte{0xAB}, 1024)
	start := time.Now()
	if err := nodes[1].WriteBlock(id, newBlock); err != nil {
		t.Fatalf("write with crashed peer: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("write took %v, want bounded by the RPC deadline", elapsed)
	}
	// The bus sender for the dead peer degrades each failed delivery
	// attempt to a skipped invalidation (asynchronously: poll).
	deadline := time.Now().Add(10 * time.Second)
	for nodes[1].Stats().InvalidateSkips == 0 {
		if time.Now().After(deadline) {
			t.Fatal("crashed peer was not degraded to a skipped invalidation")
		}
		time.Sleep(time.Millisecond)
	}

	// Every live entry node converges on the new content within the
	// staleness bound (no stale copy survives on a live node).
	want := append(append([]byte(nil), newBlock...), SyntheticBlock(f, 1, 1024)...)
	for entry := 0; entry < 3; entry++ {
		for {
			got, err := client.ReadVia(entry, f)
			if err != nil {
				t.Fatalf("read via %d after write: %v", entry, err)
			}
			if bytes.Equal(got, want) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("stale content via node %d after write with crashed peer", entry)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestReadUnderPartitionBounded one-way-partitions a requester from the
// node holding the master copy: the read must time out on the peer fetch,
// fall back to the home node within the deadline+retry budget, return
// correct data, and repair the directory entry that named the unreachable
// peer.
func TestReadUnderPartitionBounded(t *testing.T) {
	const rpcTimeout = 200 * time.Millisecond
	const retries = 1
	f := homedAt(3, 1) // homed on neither end of the partition
	sizes := map[block.FileID]int64{f: 2048}
	nodes, client := startCluster(t, 3, 64, sizes, func(i int, cfg *Config) {
		cfg.RPCTimeout = rpcTimeout
		cfg.Retries = retries
		if i == 0 {
			// Frames node 0 sends to node 2 vanish; everything else flows.
			cfg.Fault = &FaultPlan{Seed: 1, Partitions: [][2]int{{0, 2}}}
		}
	})

	// Make node 2 the master holder of the file's blocks.
	if _, err := client.ReadVia(2, f); err != nil {
		t.Fatalf("prime read: %v", err)
	}

	// Node 0 believes the master is at node 2, which it cannot reach.
	start := time.Now()
	got, err := client.ReadVia(0, f)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("read under partition: %v", err)
	}
	if !bytes.Equal(got, expect(testGeom, f, 2048)) {
		t.Fatal("content mismatch under partition")
	}
	// Bound: one timed-out peer fetch plus a home read with retries, per
	// block window — generously ceilinged to absorb scheduler noise.
	ceiling := time.Duration(retries+3)*rpcTimeout + 2*time.Second
	if elapsed > ceiling {
		t.Fatalf("partitioned read took %v, want < %v", elapsed, ceiling)
	}

	st := nodes[0].Stats()
	if st.RPCTimeouts == 0 {
		t.Fatalf("no RPC timeout recorded: %+v", st)
	}
	if st.HomeFallbacks == 0 || st.StaleDrops == 0 {
		t.Fatalf("fallback not recorded (fallbacks=%d staleDrops=%d)", st.HomeFallbacks, st.StaleDrops)
	}
	// The stale entry naming node 2 was repaired: the directory now names
	// node 0 (the fallback read's new master) for the fetched blocks.
	if holder, ok := dirOf(t, nodes, f).lookup(block.ID{File: f, Idx: 0}); !ok || holder != 0 {
		t.Fatalf("directory entry not repaired: holder=%d ok=%v", holder, ok)
	}
}

// TestChaosSoak hammers a cluster whose every connection randomly delays,
// drops, and crashes frames (a seeded FaultPlan), with concurrent readers
// and writers. The contract under chaos: no torn or stale-after-
// invalidate content is ever observed, client-visible errors stay rare
// (the retry/fallback machinery absorbs the faults), the run completes,
// and the failure events show up in the counters. Run it with -race; in
// -short mode it shrinks instead of skipping so CI always exercises it.
func TestChaosSoak(t *testing.T) {
	opsEach := 50
	if testing.Short() {
		opsEach = 12
	}
	const (
		nFiles   = 6
		fileSize = 4 * 1024 // 4 blocks of 1 KB
		workers  = 6
	)
	sizes := map[block.FileID]int64{}
	for f := 0; f < nFiles; f++ {
		sizes[block.FileID(f)] = fileSize
	}
	plan := &FaultPlan{
		Seed:      42,
		DelayProb: 0.05, Delay: time.Millisecond,
		DropProb:  0.03,
		CrashProb: 0.01,
	}
	nodes, _ := startCluster(t, 4, 24, sizes, func(i int, cfg *Config) {
		cfg.Fault = plan
		cfg.RPCTimeout = 250 * time.Millisecond
		cfg.Retries = 3
		cfg.BreakerThreshold = 12
		cfg.BreakerCooldown = 100 * time.Millisecond
	})
	client := dialNodes(t, nodes, ClientConfig{
		RPCTimeout: 1500 * time.Millisecond,
		Retries:    4,
		Fault:      &FaultPlan{Seed: 43, DropProb: 0.01},
	})

	validBlock := func(f block.FileID, idx int32, data []byte) bool {
		if bytes.Equal(data, SyntheticBlock(f, idx, len(data))) {
			return true
		}
		if len(data) == 0 {
			return false
		}
		tag := data[0]
		for _, b := range data {
			if b != tag {
				return false // torn write
			}
		}
		return tag < workers
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	var visibleErrs int
	fatal := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			for op := 0; op < opsEach; op++ {
				f := block.FileID(rng.Intn(nFiles))
				if rng.Intn(4) == 0 {
					data := bytes.Repeat([]byte{byte(w)}, 1024)
					if err := client.Write(f, int32(rng.Intn(4)), data); err != nil {
						mu.Lock()
						visibleErrs++
						mu.Unlock()
					}
					continue
				}
				data, err := client.Read(f)
				if err != nil {
					mu.Lock()
					visibleErrs++
					mu.Unlock()
					continue
				}
				if len(data) != fileSize {
					fatal <- fmt.Errorf("worker %d: file %d is %d bytes", w, f, len(data))
					return
				}
				for idx := int32(0); idx < 4; idx++ {
					if !validBlock(f, idx, data[idx*1024:(idx+1)*1024]) {
						fatal <- fmt.Errorf("worker %d: file %d block %d has torn/invalid content", w, f, idx)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(fatal)
	for err := range fatal {
		t.Fatal(err)
	}

	total := workers * opsEach
	if visibleErrs > total/10 {
		t.Fatalf("%d/%d client-visible errors under chaos, want the retry layer to absorb most faults", visibleErrs, total)
	}

	st, err := client.ClusterStats()
	if err != nil {
		t.Fatalf("cluster stats after soak: %v", err)
	}
	if st.RPCTimeouts+st.RPCRetries+st.HomeFallbacks+st.RPCFailures == 0 {
		t.Fatalf("chaos soak recorded no fault events: %+v", st)
	}
	if st.Writes == 0 {
		t.Fatal("soak exercised no writes")
	}
}
