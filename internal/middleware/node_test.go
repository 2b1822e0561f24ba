package middleware

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/core"
)

// startCluster spins up k live nodes on loopback sharing a synthetic file
// set, homes on the consistent-hash ring as in every deployment, and returns
// the nodes and a connected client. mut, when non-nil, adjusts each node's
// Config before start. Cleanup is registered on t.
func startCluster(t *testing.T, k, capacityBlocks int, sizes map[block.FileID]int64, mut func(i int, cfg *Config)) ([]*Node, *Client) {
	t.Helper()
	nodes := make([]*Node, k)
	addrs := make([]string, k)
	for i := 0; i < k; i++ {
		cfg := Config{
			ID:             i,
			CapacityBlocks: capacityBlocks,
			Policy:         core.PolicyMaster,
			Geometry:       testGeom,
			Source:         NewMemSource(testGeom, sizes),
		}
		if mut != nil {
			mut(i, &cfg)
		}
		n, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		addrs[i] = n.Addr()
	}
	for _, n := range nodes {
		n.SetAddrs(addrs)
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			if n != nil { // a test may nil out a node it retired
				n.Close()
			}
		}
	})
	return nodes, dialNodes(t, nodes, ClientConfig{})
}

// dialNodes connects a client with the given settings to nodes; it is closed
// with t, before the nodes.
func dialNodes(t *testing.T, nodes []*Node, ccfg ClientConfig) *Client {
	t.Helper()
	addrs := make([]string, len(nodes))
	for i, n := range nodes {
		addrs[i] = n.Addr()
	}
	client, err := DialClusterConfig(addrs, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client
}

// homedAt is the first file whose ring home in a k-node cluster is node.
func homedAt(k, node int) block.FileID {
	f := block.FileID(0)
	for RingHome(f, k) != node {
		f++
	}
	return f
}

// dirOf is the directory server that manages file f's entries: its home's.
func dirOf(t *testing.T, nodes []*Node, f block.FileID) *dirServer {
	t.Helper()
	h, err := nodes[0].home(f)
	if err != nil {
		t.Fatal(err)
	}
	return nodes[h].dirSrv
}

// expect reconstructs the synthetic content of a whole file.
func expect(geom block.Geometry, f block.FileID, size int64) []byte {
	var out []byte
	for i := int32(0); i < geom.Count(size); i++ {
		out = append(out, SyntheticBlock(f, i, blockLen(geom, size, i))...)
	}
	return out
}

var testGeom = block.Geometry{Size: 1024, ExtentBlocks: 8}

func TestLiveReadSingleFile(t *testing.T) {
	sizes := map[block.FileID]int64{0: 3500}
	_, client := startCluster(t, 3, 64, sizes, nil)
	got, err := client.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, expect(testGeom, 0, 3500)) {
		t.Fatal("content mismatch")
	}
}

func TestLiveReadsAllNodesAllFiles(t *testing.T) {
	sizes := map[block.FileID]int64{}
	for f := 0; f < 12; f++ {
		sizes[block.FileID(f)] = int64(500 + f*700)
	}
	_, client := startCluster(t, 4, 128, sizes, nil)
	for f := 0; f < 12; f++ {
		for node := 0; node < 4; node++ {
			got, err := client.ReadVia(node, block.FileID(f))
			if err != nil {
				t.Fatalf("file %d via node %d: %v", f, node, err)
			}
			if !bytes.Equal(got, expect(testGeom, block.FileID(f), sizes[block.FileID(f)])) {
				t.Fatalf("file %d via node %d: content mismatch", f, node)
			}
		}
	}
	st, err := client.ClusterStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Accesses == 0 || st.LocalHits+st.RemoteHits == 0 {
		t.Fatalf("no cache activity: %+v", st)
	}
	// Re-reads must be memory hits: disk reads happen once per block.
	var totalBlocks uint64
	for f, sz := range sizes {
		totalBlocks += uint64(testGeom.Count(sz))
		_ = f
	}
	if st.DiskReads > totalBlocks+st.RaceMisses {
		t.Fatalf("disk reads %d exceed unique blocks %d", st.DiskReads, totalBlocks)
	}
}

func TestLiveSingleMasterPerBlock(t *testing.T) {
	sizes := map[block.FileID]int64{0: 4096, 1: 4096, 2: 4096}
	nodes, client := startCluster(t, 3, 64, sizes, nil)
	for f := 0; f < 3; f++ {
		for i := 0; i < 3; i++ {
			if _, err := client.ReadVia(i, block.FileID(f)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for f := 0; f < 3; f++ {
		for idx := int32(0); idx < testGeom.Count(4096); idx++ {
			id := block.ID{File: block.FileID(f), Idx: idx}
			masters := 0
			for _, n := range nodes {
				if n.store.IsMaster(id) {
					masters++
				}
			}
			if masters != 1 {
				t.Errorf("block %v has %d masters, want 1", id, masters)
			}
		}
	}
}

func TestLiveRemoteHitServesFromPeerMemory(t *testing.T) {
	sizes := map[block.FileID]int64{5: 2048}
	nodes, client := startCluster(t, 2, 64, sizes, nil)
	if _, err := client.ReadVia(0, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := client.ReadVia(1, 5); err != nil {
		t.Fatal(err)
	}
	s0, s1 := nodes[0].Stats(), nodes[1].Stats()
	if s1.RemoteHits == 0 {
		t.Fatalf("node 1 should have remote hits: %+v", s1)
	}
	if got := s0.DiskReads + s1.DiskReads; got != 2 {
		t.Fatalf("disk reads = %d, want 2 (one per block, no refetch)", got)
	}
}

func TestLiveEvictionForwarding(t *testing.T) {
	// Tiny caches force evictions; master forwarding should move masters to
	// peers rather than dropping them whenever peers hold older blocks.
	sizes := map[block.FileID]int64{}
	for f := 0; f < 30; f++ {
		sizes[block.FileID(f)] = 1024
	}
	nodes, client := startCluster(t, 3, 8, sizes, func(_ int, cfg *Config) { cfg.Policy = core.PolicyBasic })
	// Phase 1: node 1 fills with blocks that then sit idle (old ages).
	for f := 0; f < 8; f++ {
		if _, err := client.ReadVia(1, block.FileID(f)); err != nil {
			t.Fatal(err)
		}
	}
	// Phase 2: node 0 churns through the rest; the masters it evicts are
	// younger than node 1's idle content, so they must be forwarded there
	// rather than dropped (§3 second chance).
	for round := 0; round < 3; round++ {
		for f := 8; f < 30; f++ {
			if _, err := client.ReadVia(0, block.FileID(f)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var forwards uint64
	for _, n := range nodes {
		forwards += n.Stats().Forwards + n.Stats().ForwardsRejected
	}
	if forwards == 0 {
		t.Fatal("no eviction forwarding happened under memory pressure")
	}
	// Every cache must respect capacity.
	for i, n := range nodes {
		if n.store.Len() > 8 {
			t.Fatalf("node %d over capacity: %d", i, n.store.Len())
		}
	}
}

func TestLiveConcurrentReaders(t *testing.T) {
	sizes := map[block.FileID]int64{}
	for f := 0; f < 20; f++ {
		sizes[block.FileID(f)] = int64(1024 + f*512)
	}
	_, client := startCluster(t, 4, 32, sizes, nil)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				f := block.FileID((w*25 + i) % 20)
				got, err := client.Read(f)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, expect(testGeom, f, sizes[f])) {
					errs <- errContentMismatch
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var errContentMismatch = &contentErr{}

type contentErr struct{}

func (*contentErr) Error() string { return "content mismatch under concurrency" }

func TestLiveStatsRPC(t *testing.T) {
	sizes := map[block.FileID]int64{0: 1024}
	nodes, client := startCluster(t, 2, 16, sizes, nil)
	if _, err := client.Read(0); err != nil {
		t.Fatal(err)
	}
	s, err := client.NodeStats(0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Node != 0 {
		t.Fatalf("stats for node %d", s.Node)
	}
	local := nodes[0].Stats()
	if s.Accesses != local.Accesses {
		t.Fatalf("RPC stats %d != local %d", s.Accesses, local.Accesses)
	}
}

func TestStartValidation(t *testing.T) {
	if _, err := Start(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := Start(Config{CapacityBlocks: 4}); err == nil {
		t.Fatal("missing source accepted")
	}
}

func TestPeerBeforeMembershipFails(t *testing.T) {
	geom := testGeom
	n, err := Start(Config{ID: 0, CapacityBlocks: 4, Geometry: geom,
		Source: NewMemSource(geom, map[block.FileID]int64{0: 1024})})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := n.home(0); err == nil {
		t.Fatal("home mapping without membership should fail")
	}
}

// TestPeerDialRace: the peer table must hand back a connection or an
// error, never neither. Many goroutines use one peer while its connection
// keeps dying, so dials race each other and the redial in roundTrip clears
// the slot a dial's loser is about to read. A failed round trip is
// expected here; a nil connection (a panic in conn.roundTrip) is the bug.
func TestPeerDialRace(t *testing.T) {
	sizes := map[block.FileID]int64{0: 1024}
	nodes, _ := startCluster(t, 2, 16, sizes, nil)
	n := nodes[0]
	p := n.peers.get(1)

	stop := make(chan struct{})
	var closer sync.WaitGroup
	closer.Add(1)
	go func() {
		defer closer.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if c := p.conn.Load(); c != nil {
				c.close()
			}
			runtime.Gosched()
		}
	}()

	var users sync.WaitGroup
	for g := 0; g < 16; g++ {
		users.Add(1)
		go func() {
			defer users.Done()
			for i := 0; i < 200; i++ {
				if c, err := n.peers.conn(p); c == nil && err == nil {
					t.Error("conn returned neither a connection nor an error")
					return
				}
				req := getFrame()
				req.Type, req.File, req.Aux = MsgGetRun, 0, packRunAux(1, 0)
				if resp, err := n.peers.roundTrip(p, req); err == nil {
					releaseFrame(resp)
				}
				releaseFrame(req)
			}
		}()
	}
	users.Wait()
	close(stop)
	closer.Wait()
}

// TestCloseLeavesNoGoroutines: a cluster that has served reads and writes
// through every entry, grown by a joiner whose rebalance pulls ran, and
// lost a member to a crash its heartbeats promoted to dead, gives every
// goroutine back once its nodes and its client are closed — conn readers
// and workers, bus senders, accept loops, tickers and rebalance drainers —
// and every arena frame its stores cached.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	before, framesBefore := runtime.NumGoroutine(), frames.used()

	const k = 4
	sizes := map[block.FileID]int64{}
	for f := 0; f < 8; f++ {
		sizes[block.FileID(f)] = 4 * int64(testGeom.Size)
	}
	heartbeat := func(i int, cfg *Config) { cfg.HeartbeatInterval = 5 * time.Millisecond }
	// The cleanup startCluster registers closes everything a second
	// time, which is harmless: Close is idempotent on nodes and client.
	nodes, client := startCluster(t, k, 64, sizes, heartbeat)
	for entry := 0; entry < k; entry++ {
		for f := range sizes {
			if _, err := client.ReadVia(entry, f); err != nil {
				t.Fatalf("read file %d via %d: %v", f, entry, err)
			}
		}
		// Client.Write enters round-robin: k writes pass through every entry.
		patch := bytes.Repeat([]byte{byte(entry + 1)}, testGeom.Size)
		if err := client.Write(block.FileID(entry), 0, patch); err != nil {
			t.Fatalf("write %d: %v", entry, err)
		}
	}

	// A fifth node joins and pulls the files it takes over from their old
	// homes.
	cfg := Config{
		ID: k, CapacityBlocks: 64, Policy: core.PolicyMaster,
		Geometry: testGeom, Source: NewMemSource(testGeom, sizes),
	}
	heartbeat(k, &cfg)
	joiner, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { joiner.Close() })
	if err := joiner.Join(nodes[0].Addr()); err != nil {
		t.Fatalf("join: %v", err)
	}
	nodes = append(nodes, joiner)
	waitFor(t, 10*time.Second, "the join everywhere", func() bool {
		for _, n := range nodes {
			if n.MembershipEpoch() < 2 {
				return false
			}
		}
		return true
	})
	// RebalancePending can read 0 before a view's pulls are queued: wait for
	// pulled blocks too.
	waitFor(t, 10*time.Second, "the joiner's rebalance pulls", func() bool {
		return joiner.Stats().RebalancedBlocks > 0 && rebalanceSettled(nodes)
	})

	// An original node crashes without draining: the survivors' heartbeats
	// promote it to dead, and reads go on through every survivor.
	const crashed = 1
	nodes[crashed].Close()
	survivors := []*Node{nodes[0], nodes[2], nodes[3], joiner}
	waitFor(t, 15*time.Second, "dead promotion", func() bool {
		for _, n := range survivors {
			if v := n.viewRef(); v == nil || v.members[crashed].State != stateDead {
				return false
			}
		}
		return true
	})
	waitFor(t, 10*time.Second, "re-homing to settle", func() bool { return rebalanceSettled(survivors) })
	if err := client.RefreshMembership(); err != nil {
		t.Fatal(err)
	}
	for _, n := range survivors {
		for f := range sizes {
			if _, err := client.ReadVia(n.ID(), f); err != nil {
				t.Fatalf("read file %d via survivor %d: %v", f, n.ID(), err)
			}
		}
	}

	client.Close()
	for _, n := range nodes {
		n.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines before the cluster started, %d after everything closed:\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
	// Every cached block sits in an arena frame, which only a release gives
	// back: a closed cluster must hold none of them.
	for frames.used() > framesBefore {
		if time.Now().After(deadline) {
			t.Fatalf("%d arena frames in use before the cluster started, %d after everything closed", framesBefore, frames.used())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPeerServeFlagsMasterOnly pins the wire contract the requester's
// install relies on: a one-block peer serve flags the block as a master
// copy iff it is held as one. It also pins the serve's cost: the reply
// aliases the pinned store buffer and keeps the pin in the frame's inline
// array, so a one-block serve allocates nothing.
func TestPeerServeFlagsMasterOnly(t *testing.T) {
	sizes := map[block.FileID]int64{0: 2048}
	nodes, _ := startCluster(t, 2, 16, sizes, nil)
	n := nodes[0]
	id := block.ID{File: 0, Idx: 0}
	data := SyntheticBlock(0, 0, 1024)
	req := &Frame{Type: MsgGetRun, File: 0, Idx: 0, Aux: packRunAux(1, 0), Sender: 1}
	serve := func() (int, uint32) {
		r := n.handleGetRun(req)
		defer releaseFrame(r)
		if r.Type != MsgRunData || !bytes.Equal(r.Payload, data) || len(r.Segs) != 0 {
			t.Fatalf("serve: type %d, %d payload bytes, %d segments; want MsgRunData with the block as its payload",
				r.Type, len(r.Payload), len(r.Segs))
		}
		return unpackRunAux(r.Aux)
	}

	n.store.Insert(id, data, true)
	if count, masters := serve(); count != 1 || masters != 1 {
		t.Fatalf("master serve: count %d masters %#b, want 1 and 0b1", count, masters)
	}
	n.store.Remove(id)
	n.store.Insert(id, data, false)
	if count, masters := serve(); count != 1 || masters != 0 {
		t.Fatalf("non-master serve: count %d masters %#b, want 1 and 0", count, masters)
	}
	if a := testing.AllocsPerRun(1000, func() { releaseFrame(n.handleGetRun(req)) }); a != 0 {
		t.Fatalf("a one-block peer serve allocates %v times, want 0", a)
	}
}
