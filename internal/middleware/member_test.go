package middleware

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/obs"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// rebalanceSettled reports that every listed node has drained its pending
// re-homing pulls.
func rebalanceSettled(nodes []*Node) bool {
	for _, n := range nodes {
		if n == nil {
			continue
		}
		if n.Stats().RebalancePending != 0 {
			return false
		}
	}
	return true
}

// expectWithWrite overlays one written block onto the synthetic content.
func expectWithWrite(f block.FileID, size int64, idx int32, data []byte) []byte {
	out := expect(testGeom, f, size)
	copy(out[int64(idx)*int64(testGeom.Size):], data)
	return out
}

// TestJoinRebalancesAndServes grows a 2-node ring to 3 under concurrent
// reads: zero client-visible errors, the joiner takes over its slice of
// the ring (pulling write-through state from the previous homes), and
// every file — including one written before the join — reads back correct
// through every entry node.
func TestJoinRebalancesAndServes(t *testing.T) {
	sizes := map[block.FileID]int64{}
	const files = 24
	for f := 0; f < files; f++ {
		sizes[block.FileID(f)] = 2048
	}
	nodes, client := startCluster(t, 2, 256, sizes, nil)

	// Divergent write-through state the joiner must not lose.
	written := bytes.Repeat([]byte{0xAB}, 1024)
	if err := client.Write(3, 0, written); err != nil {
		t.Fatal(err)
	}
	for f := block.FileID(0); f < files; f++ {
		if _, err := client.Read(f); err != nil {
			t.Fatal(err)
		}
	}

	// Reads hammer the cluster while the membership changes.
	var stop atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for f := block.FileID(0); !stop.Load(); f = (f + 1) % files {
			if _, err := client.Read(f); err != nil {
				select {
				case errCh <- err:
				default:
				}
				return
			}
		}
	}()

	joiner, err := Start(Config{
		ID: 2, CapacityBlocks: 256, Policy: core.PolicyMaster,
		Geometry: testGeom, Source: NewMemSource(testGeom, sizes),
	})
	if err != nil {
		t.Fatal(err)
	}
	nodes = append(nodes, joiner)
	t.Cleanup(func() { joiner.Close() })
	if err := joiner.Join(nodes[0].Addr()); err != nil {
		t.Fatalf("join: %v", err)
	}

	waitFor(t, 10*time.Second, "all nodes at epoch 2+", func() bool {
		for _, n := range nodes {
			if n.MembershipEpoch() < 2 {
				return false
			}
		}
		return true
	})
	waitFor(t, 10*time.Second, "rebalance to settle", func() bool { return rebalanceSettled(nodes) })

	stop.Store(true)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("read error during join: %v", err)
	default:
	}

	// The joiner owns a slice of the ring now.
	owned := 0
	for f := block.FileID(0); f < files; f++ {
		if h, err := joiner.home(f); err == nil && h == 2 {
			owned++
		}
	}
	if owned == 0 {
		t.Fatal("joiner owns no files (24 files over 3 nodes)")
	}
	if pulled := joiner.Stats().RebalancedBlocks; pulled == 0 {
		t.Fatal("joiner pulled no blocks")
	}

	// Every file correct through every entry, written block included.
	if err := client.RefreshMembership(); err != nil {
		t.Fatal(err)
	}
	for f := block.FileID(0); f < files; f++ {
		want := expect(testGeom, f, 2048)
		if f == 3 {
			want = expectWithWrite(f, 2048, 0, written)
		}
		for entry := 0; entry < 3; entry++ {
			got, err := client.ReadVia(entry, f)
			if err != nil {
				t.Fatalf("file %d via node %d: %v", f, entry, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("file %d via node %d: content mismatch after join", f, entry)
			}
		}
	}
}

// badBlockSource is a MemSource whose reads of one block fail once armed.
type badBlockSource struct {
	*MemSource
	bad   int32
	armed atomic.Bool
}

func (s *badBlockSource) ReadBlock(f block.FileID, idx int32) ([]byte, error) {
	if idx == s.bad && s.armed.Load() {
		return nil, fmt.Errorf("injected failure at block %d", idx)
	}
	return s.MemSource.ReadBlock(f, idx)
}

// TestEvictionForwardDuringJoins: an evicted master's forward reads every
// peer's piggybacked age with no lock held, while a join grows the peer
// table those ages live in. Two 8-block nodes serve four readers over 64
// files of four blocks, so masters are evicted and forwarded all the time,
// and four nodes join one after another. Under -race an unsynchronized
// read shows up in a few rounds; the test runs sixteen.
func TestEvictionForwardDuringJoins(t *testing.T) {
	const files = 64
	sizes := map[block.FileID]int64{}
	for f := 0; f < files; f++ {
		sizes[block.FileID(f)] = 4 * int64(testGeom.Size)
	}
	for round := 0; round < 16; round++ {
		t.Run(fmt.Sprint(round), func(t *testing.T) {
			nodes, client := startCluster(t, 2, 8, sizes, nil)
			var stop atomic.Bool
			var readers sync.WaitGroup
			for g := 0; g < 4; g++ {
				readers.Add(1)
				go func(g int) {
					defer readers.Done()
					for f := block.FileID(g); !stop.Load(); f = (f + 4) % files {
						client.Read(f) //nolint:errcheck // the race, not the read, is under test
					}
				}(g)
			}
			defer readers.Wait()
			defer stop.Store(true)
			for id := 2; id < 6; id++ {
				joiner, err := Start(Config{ID: id, CapacityBlocks: 8, Policy: core.PolicyMaster,
					Geometry: testGeom, Source: NewMemSource(testGeom, sizes)})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { joiner.Close() })
				if err := joiner.Join(nodes[0].Addr()); err != nil {
					t.Fatalf("join of node %d: %v", id, err)
				}
			}
		})
	}
}

// TestPullFileSkipsOnlyTheBadBlock: a block that fails to read at the old
// home costs the rebalance pull that block and no other. The file's first
// block fails, which fails the first run outright, and every block written
// behind it still reaches the joiner that takes the file over.
func TestPullFileSkipsOnlyTheBadBlock(t *testing.T) {
	const nblocks = 6
	f := block.FileID(0)
	for RingHome(f, 3) != 2 { // a file the 2 -> 3 join moves to the joiner
		f++
	}
	oldHome := RingHome(f, 2)
	sizes := map[block.FileID]int64{f: nblocks * int64(testGeom.Size)}
	src := &badBlockSource{MemSource: NewMemSource(testGeom, sizes), bad: 0}
	nodes, client := startCluster(t, 2, 64, sizes, func(i int, cfg *Config) {
		if i == oldHome {
			cfg.Source = src
		}
	})

	want := expect(testGeom, f, sizes[f])
	for idx := int32(1); idx < nblocks; idx++ {
		v := bytes.Repeat([]byte{byte(0xA0 + idx)}, testGeom.Size)
		if err := client.Write(f, idx, v); err != nil {
			t.Fatal(err)
		}
		copy(want[int(idx)*testGeom.Size:], v)
	}
	src.armed.Store(true)

	tracer := obs.NewTracer(64)
	joiner, err := Start(Config{
		ID: 2, CapacityBlocks: 64, Policy: core.PolicyMaster,
		Geometry: testGeom, Source: NewMemSource(testGeom, sizes), Tracer: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { joiner.Close() })
	if err := joiner.Join(nodes[0].Addr()); err != nil {
		t.Fatalf("join: %v", err)
	}
	// The pull ends with one rebalance event carrying the blocks pulled (-1:
	// the old home counted as gone).
	var pulled int64
	waitFor(t, 10*time.Second, "the joiner's pull of the file", func() bool {
		for _, e := range tracer.Events() {
			if e.Kind == traceRebalance && e.File == int64(f) {
				pulled = e.Aux
				return true
			}
		}
		return false
	})
	if pulled != nblocks-1 {
		t.Fatalf("the joiner pulled %d blocks, want %d (all but the bad one)", pulled, nblocks-1)
	}
	if err := client.RefreshMembership(); err != nil {
		t.Fatal(err)
	}
	got, err := client.ReadVia(2, f)
	if err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < nblocks; idx++ {
		b := want[idx*testGeom.Size : (idx+1)*testGeom.Size]
		if !bytes.Equal(got[idx*testGeom.Size:(idx+1)*testGeom.Size], b) {
			t.Errorf("block %d through the new home: not the version written before the join", idx)
		}
	}
}

// movedFile is the first file a 2 -> 3 join moves onto the joiner, with its
// home before the join.
func movedFile() (f block.FileID, oldHome int) {
	for RingHome(f, 3) != 2 {
		f++
	}
	return f, RingHome(f, 2)
}

// TestPullIgnoresOldHomeDirectory: the rebalance pull copies the old home's
// source bytes for every block, whatever the old home's directory says. Each
// block was written through another node, so the old home's directory names
// that writer for all of them, and a home miss would name it instead of
// serving a byte.
func TestPullIgnoresOldHomeDirectory(t *testing.T) {
	const nblocks = 4
	f, oldHome := movedFile()
	sizes := map[block.FileID]int64{f: nblocks * int64(testGeom.Size)}
	nodes, _ := startCluster(t, 2, 64, sizes, nil)
	writer := nodes[1-oldHome]
	for idx := int32(0); idx < nblocks; idx++ {
		if err := writer.WriteBlock(block.ID{File: f, Idx: idx}, bytes.Repeat([]byte{byte(0xB0 + idx)}, testGeom.Size)); err != nil {
			t.Fatal(err)
		}
		if holder, ok := nodes[oldHome].dirSrv.lookup(block.ID{File: f, Idx: idx}); !ok || holder != int32(writer.ID()) {
			t.Fatalf("block %d: the old home's directory names %d (present %v), want the writer", idx, holder, ok)
		}
	}

	tracer := obs.NewTracer(64)
	src := NewMemSource(testGeom, sizes)
	joiner, err := Start(Config{
		ID: 2, CapacityBlocks: 64, Policy: core.PolicyMaster,
		Geometry: testGeom, Source: src, Tracer: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { joiner.Close() })
	if err := joiner.Join(nodes[0].Addr()); err != nil {
		t.Fatalf("join: %v", err)
	}
	waitFor(t, 10*time.Second, "the joiner's pull of the file", func() bool {
		for _, e := range tracer.Events() {
			if e.Kind == traceRebalance && e.File == int64(f) {
				if e.Aux != nblocks {
					t.Fatalf("the joiner pulled %d blocks, want %d", e.Aux, nblocks)
				}
				return true
			}
		}
		return false
	})
	for idx := int32(0); idx < nblocks; idx++ {
		got, err := src.ReadBlock(f, idx)
		if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{byte(0xB0 + idx)}, testGeom.Size)) {
			t.Fatalf("block %d on the joiner's source is not the written version (err %v)", idx, err)
		}
	}
}

// TestHomeReadWaitsForViewInstall: a node that has just installed a view
// making it a file's home, but has not yet queued the pull from the old
// home, must not serve that file's source baseline. A test hook holds the
// joiner between the view's CAS and the rebalance computation; a read of
// the moved file at the joiner must wait, then return the bytes written
// through the old home.
func TestHomeReadWaitsForViewInstall(t *testing.T) {
	f, _ := movedFile()
	sizes := map[block.FileID]int64{f: int64(testGeom.Size)}
	nodes, client := startCluster(t, 2, 64, sizes, nil)
	want := bytes.Repeat([]byte{0xC7}, testGeom.Size)
	if err := client.Write(f, 0, want); err != nil {
		t.Fatal(err)
	}
	joiner, err := Start(Config{
		ID: 2, CapacityBlocks: 64, Policy: core.PolicyMaster,
		Geometry: testGeom, Source: NewMemSource(testGeom, sizes),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { joiner.Close() })

	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	hook := func(n *Node) {
		if n == joiner {
			once.Do(func() {
				close(held)
				<-release
			})
		}
	}
	testAfterViewCAS.Store(&hook)
	t.Cleanup(func() { testAfterViewCAS.Store(nil) })
	joined := make(chan error, 1)
	go func() { joined <- joiner.Join(nodes[0].Addr()) }()
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("the joiner never installed a view")
	}

	read := make(chan []byte, 1)
	go func() {
		data, err := joiner.ReadFile(f)
		if err != nil {
			t.Error(err)
		}
		read <- data
	}()
	select {
	case data := <-read:
		close(release)
		t.Fatalf("the read returned while the install was held (source baseline: %v)", !bytes.Equal(data, want))
	case <-time.After(300 * time.Millisecond):
	}
	close(release)
	select {
	case data := <-read:
		if !bytes.Equal(data, want) {
			t.Fatal("the new home served its source baseline, not the bytes written through the old home")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the read never returned")
	}
	if err := <-joined; err != nil {
		t.Fatalf("join: %v", err)
	}
}

// TestDrainHandsOffAndServes shrinks a 3-node ring to 2 gracefully: drain,
// wait for the survivors to pull the drained node's slice (write-through
// state included), remove it, shut it down — and every file still reads
// back correct with zero errors.
func TestDrainHandsOffAndServes(t *testing.T) {
	sizes := map[block.FileID]int64{}
	const files = 24
	for f := 0; f < files; f++ {
		sizes[block.FileID(f)] = 2048
	}
	nodes, client := startCluster(t, 3, 256, sizes, nil)

	// Write one block of every file: the drained node's write-through
	// state must survive the hand-off wherever each file homes.
	written := bytes.Repeat([]byte{0xCD}, 1024)
	for f := block.FileID(0); f < files; f++ {
		if err := client.Write(f, 1, written); err != nil {
			t.Fatal(err)
		}
	}

	const drained = 2
	if err := client.DrainNode(drained); err != nil {
		t.Fatalf("drain: %v", err)
	}
	waitFor(t, 10*time.Second, "drain epoch everywhere", func() bool {
		for _, n := range nodes {
			if n.MembershipEpoch() < 2 {
				return false
			}
		}
		return true
	})
	survivors := []*Node{nodes[0], nodes[1]}
	waitFor(t, 10*time.Second, "survivors to pull the drained slice", func() bool {
		return rebalanceSettled(survivors)
	})
	if err := client.RemoveNode(drained); err != nil {
		t.Fatalf("remove: %v", err)
	}
	waitFor(t, 10*time.Second, "removal epoch on survivors", func() bool {
		return nodes[0].MembershipEpoch() >= 3 && nodes[1].MembershipEpoch() >= 3
	})
	nodes[2].Close()
	nodes[2] = nil

	for f := block.FileID(0); f < files; f++ {
		want := expectWithWrite(f, 2048, 1, written)
		for _, entry := range []int{0, 1} {
			got, err := client.ReadVia(entry, f)
			if err != nil {
				t.Fatalf("file %d via node %d after drain: %v", f, entry, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("file %d via node %d: content mismatch after drain", f, entry)
			}
		}
	}
	// The survivors own everything.
	for f := block.FileID(0); f < files; f++ {
		h, err := nodes[0].home(f)
		if err != nil {
			t.Fatal(err)
		}
		if h == drained {
			t.Fatalf("file %d still homes at the drained node", f)
		}
	}
}

// TestHeartbeatPromotesDeadAndRehomes crashes a node with no graceful
// drain: the survivors' heartbeats suspect it, promote it to dead, and
// re-home its slice of the ring — reads keep succeeding throughout (the
// successor fallback bridges the gap before the promotion lands).
func TestHeartbeatPromotesDeadAndRehomes(t *testing.T) {
	sizes := map[block.FileID]int64{}
	const files = 18
	for f := 0; f < files; f++ {
		sizes[block.FileID(f)] = 2048
	}
	nodes, client := startCluster(t, 3, 256, sizes, func(i int, cfg *Config) {
		cfg.HeartbeatInterval = 10 * time.Millisecond
		cfg.SuspectTimeout = 30 * time.Millisecond
		cfg.DeadTimeout = 60 * time.Millisecond
		cfg.RPCTimeout = 250 * time.Millisecond
	})

	for f := block.FileID(0); f < files; f++ {
		if _, err := client.Read(f); err != nil {
			t.Fatal(err)
		}
	}

	const crashed = 2
	nodes[2].Close()
	nodes[2] = nil

	waitFor(t, 15*time.Second, "dead promotion", func() bool {
		for _, n := range nodes[:2] {
			v := n.viewRef()
			if v == nil || v.members[crashed].State != stateDead {
				return false
			}
		}
		return true
	})
	waitFor(t, 10*time.Second, "re-homing to settle", func() bool {
		return rebalanceSettled(nodes[:2])
	})

	if hb := nodes[0].Stats().HeartbeatFailures + nodes[1].Stats().HeartbeatFailures; hb == 0 {
		t.Fatal("no heartbeat failures recorded around a crash")
	}
	for f := block.FileID(0); f < files; f++ {
		h, err := nodes[0].home(f)
		if err != nil {
			t.Fatal(err)
		}
		if h == crashed {
			t.Fatalf("file %d still homes at the crashed node", f)
		}
		for _, entry := range []int{0, 1} {
			got, err := client.ReadVia(entry, f)
			if err != nil {
				t.Fatalf("file %d via node %d after crash: %v", f, entry, err)
			}
			if !bytes.Equal(got, expect(testGeom, f, 2048)) {
				t.Fatalf("file %d via node %d: content mismatch after crash", f, entry)
			}
		}
	}
}

// TestClientSurvivesOriginalEntryDeath dials a client at a single node,
// lets the failover path refresh the membership view, then kills that
// original entry point: the client keeps working through members it only
// learned about from the view.
func TestClientSurvivesOriginalEntryDeath(t *testing.T) {
	sizes := map[block.FileID]int64{0: 2048, 1: 2048, 2: 2048, 3: 2048}
	nodes, seeded := startCluster(t, 3, 256, sizes, nil)
	defer seeded.Close()

	client, err := DialCluster([]string{nodes[0].Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Read(0); err != nil {
		t.Fatal(err)
	}
	// Learn the full membership while the original entry is still alive
	// (the failover path calls this on transient failures).
	if err := client.RefreshMembership(); err != nil {
		t.Fatal(err)
	}
	if client.MembershipEpoch() == 0 {
		t.Fatal("client learned no membership view")
	}

	// Gracefully remove node 0 — the client's only dialed address.
	if err := client.DrainNode(0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "survivors to pull node 0's slice", func() bool {
		return rebalanceSettled(nodes[1:])
	})
	if err := client.RemoveNode(0); err != nil {
		t.Fatal(err)
	}
	nodes[0].Close()
	nodes[0] = nil
	if err := client.RefreshMembership(); err != nil {
		t.Fatalf("refresh after entry death: %v", err)
	}

	for f := block.FileID(0); f < 4; f++ {
		got, err := client.Read(f)
		if err != nil {
			t.Fatalf("read %d after original entry died: %v", f, err)
		}
		if !bytes.Equal(got, expect(testGeom, f, 2048)) {
			t.Fatalf("file %d: content mismatch", f)
		}
	}
}
