package middleware

import (
	"bytes"
	"testing"

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
