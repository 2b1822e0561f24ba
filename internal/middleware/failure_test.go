package middleware

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/core"
)

// TestPeerFailureFallsBackToHome kills the node holding a master copy; a
// read locating that master must degrade to a home disk read instead of
// failing.
func TestPeerFailureFallsBackToHome(t *testing.T) {
	// The file homes at node 0, so the node that dies is neither its home
	// nor the reader. Reading it via node 2 makes node 2 the master holder.
	f := homedAt(3, 0)
	sizes := map[block.FileID]int64{f: 2048}
	nodes, client := startCluster(t, 3, 64, sizes, nil)
	want := expect(testGeom, f, 2048)
	if got, err := client.ReadVia(2, f); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("prime read: %v", err)
	}
	if !nodes[2].store.IsMaster(block.ID{File: f, Idx: 0}) {
		t.Fatal("node 2 did not become master holder")
	}

	// Kill the master holder.
	nodes[2].Close()

	// Node 1 locates the master at (dead) node 2; the fetch must fall back
	// to the home node's disk and still return correct content.
	got, err := client.ReadVia(1, f)
	if err != nil {
		t.Fatalf("read after peer failure: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("content mismatch after peer failure")
	}
	if nodes[1].Stats().RaceMisses == 0 {
		t.Fatal("failure path not recorded as a miss")
	}
}

// TestNodeRestartRejoins restarts a node on its old address; the survivors'
// lazy redial lets the cluster resume serving through it.
func TestNodeRestartRejoins(t *testing.T) {
	sizes := map[block.FileID]int64{0: 2048, 1: 2048, 2: 2048}
	nodes, client := startCluster(t, 3, 64, sizes, nil)
	addrs := make([]string, 3)
	for i, n := range nodes {
		addrs[i] = n.Addr()
	}
	// Warm everything, then kill node 2 and bring a fresh node up on the
	// same address (cold cache, same identity).
	for f := block.FileID(0); f < 3; f++ {
		if _, err := client.Read(f); err != nil {
			t.Fatal(err)
		}
	}
	nodes[2].Close()
	restarted, err := Start(Config{
		ID: 2, Listen: addrs[2], CapacityBlocks: 64, Policy: core.PolicyMaster,
		Geometry: testGeom, Source: NewMemSource(testGeom, sizes),
	})
	if err != nil {
		t.Fatalf("restart on %s: %v", addrs[2], err)
	}
	defer restarted.Close()
	restarted.SetAddrs(addrs)

	// Every file is still readable through every entry node, including the
	// restarted one (the files homed on node 2 keep their disk content).
	for f := block.FileID(0); f < 3; f++ {
		for entry := 0; entry < 3; entry++ {
			got, err := client.ReadVia(entry, f)
			if err != nil {
				t.Fatalf("file %d via node %d after restart: %v", f, entry, err)
			}
			if !bytes.Equal(got, expect(testGeom, f, 2048)) {
				t.Fatalf("file %d via node %d: content mismatch after restart", f, entry)
			}
		}
	}
}

// TestRestartedWriterIsHeard restarts a writer on its old ID and address.
// Its peers still hold the applied marks of its previous bus, and the new
// bus's records must not pass for resends of the old one's: after the
// restarted writer's flush, every node reads its write.
func TestRestartedWriterIsHeard(t *testing.T) {
	f := homedAt(3, 0)
	sizes := map[block.FileID]int64{f: 1024}
	nodes, client := startCluster(t, 3, 64, sizes, nil)
	addrs := make([]string, 3)
	for i, n := range nodes {
		addrs[i] = n.Addr()
	}
	id := block.ID{File: f, Idx: 0}
	for v := byte(1); v <= 5; v++ {
		data := bytes.Repeat([]byte{v}, 1024)
		if err := nodes[2].WriteBlock(id, data); err != nil {
			t.Fatalf("write %d: %v", v, err)
		}
		if !nodes[2].FlushInval(5 * time.Second) {
			t.Fatalf("write %d: bus did not drain", v)
		}
		if got, err := client.ReadVia(1, f); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("write %d: read via node 1 = %v, %v", v, got[:min(len(got), 1)], err)
		}
	}

	nodes[2].Close()
	restarted, err := Start(Config{
		ID: 2, Listen: addrs[2], CapacityBlocks: 64, Policy: core.PolicyMaster,
		Geometry: testGeom, Source: NewMemSource(testGeom, sizes),
	})
	if err != nil {
		t.Fatalf("restart on %s: %v", addrs[2], err)
	}
	nodes[2] = restarted // closed by startCluster's cleanup
	restarted.SetAddrs(addrs)

	z := bytes.Repeat([]byte{'Z'}, 1024)
	if err := restarted.WriteBlock(id, z); err != nil {
		t.Fatalf("write after restart: %v", err)
	}
	if !restarted.FlushInval(5 * time.Second) {
		t.Fatal("restarted writer's bus did not drain")
	}
	for i, n := range nodes {
		if got, err := n.GetBlock(id); err != nil || !bytes.Equal(got, z) {
			t.Fatalf("node %d after the restarted writer's flush: %q..., %v", i, got[:min(len(got), 1)], err)
		}
	}
}

// TestRejoinedSlotIsHeard removes node 2 (its slot goes dead), then a fresh
// node joins on that slot and caches a block another node then writes. The
// writer's bus must deliver to the revived slot, not skip it as dead.
func TestRejoinedSlotIsHeard(t *testing.T) {
	f := homedAt(3, 0)
	sizes := map[block.FileID]int64{f: 1024}
	nodes, client := startCluster(t, 3, 64, sizes, nil)
	if err := client.RemoveNode(2); err != nil {
		t.Fatalf("remove: %v", err)
	}
	waitFor(t, 10*time.Second, "removal epoch on survivors", func() bool {
		return nodes[0].MembershipEpoch() >= 2 && nodes[1].MembershipEpoch() >= 2
	})
	nodes[2].Close()

	fresh, err := Start(Config{
		ID: 2, CapacityBlocks: 64, Policy: core.PolicyMaster,
		Geometry: testGeom, Source: NewMemSource(testGeom, sizes),
	})
	if err != nil {
		t.Fatal(err)
	}
	nodes[2] = fresh // closed by startCluster's cleanup
	if err := fresh.Join(nodes[0].Addr()); err != nil {
		t.Fatalf("join: %v", err)
	}
	waitFor(t, 10*time.Second, "rejoin epoch everywhere", func() bool {
		for _, n := range nodes {
			if n.MembershipEpoch() < 3 {
				return false
			}
		}
		return true
	})

	id := block.ID{File: f, Idx: 0}
	if got, err := fresh.GetBlock(id); err != nil || !bytes.Equal(got, expect(testGeom, f, 1024)) {
		t.Fatalf("rejoined node's read: %v", err)
	}
	z := bytes.Repeat([]byte{'Z'}, 1024)
	if err := nodes[1].WriteBlock(id, z); err != nil {
		t.Fatalf("write: %v", err)
	}
	if !nodes[1].FlushInval(5 * time.Second) {
		t.Fatal("writer's bus did not drain")
	}
	for i, n := range nodes {
		if got, err := n.GetBlock(id); err != nil || !bytes.Equal(got, z) {
			t.Fatalf("node %d after the writer's flush: %q..., %v", i, got[:min(len(got), 1)], err)
		}
	}
}

// TestParallelReadLargeFile exercises the windowed fetch path on a file
// with more blocks than the window.
func TestParallelReadLargeFile(t *testing.T) {
	const size = 40 * 1024 // 40 blocks of 1 KB
	sizes := map[block.FileID]int64{0: size}
	_, client := startCluster(t, 3, 128, sizes, nil)
	for entry := 0; entry < 3; entry++ {
		got, err := client.ReadVia(entry, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, expect(testGeom, 0, size)) {
			t.Fatalf("content mismatch via node %d", entry)
		}
	}
}
