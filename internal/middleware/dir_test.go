package middleware

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/core"
)

func TestDirectoryReads(t *testing.T) {
	sizes := map[block.FileID]int64{}
	for f := 0; f < 12; f++ {
		sizes[block.FileID(f)] = int64(1024 + 700*f)
	}
	_, client := startCluster(t, 3, 128, sizes, nil)
	for round := 0; round < 2; round++ {
		for f := 0; f < 12; f++ {
			got, err := client.Read(block.FileID(f))
			if err != nil {
				t.Fatalf("round %d file %d: %v", round, f, err)
			}
			if !bytes.Equal(got, expect(testGeom, block.FileID(f), sizes[block.FileID(f)])) {
				t.Fatalf("round %d file %d: content mismatch", round, f)
			}
		}
	}
	st, err := client.ClusterStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.RemoteHits+st.LocalHits == 0 {
		t.Fatal("no cache hits")
	}
}

func TestDirectorySingleMaster(t *testing.T) {
	sizes := map[block.FileID]int64{0: 4096, 1: 4096}
	nodes, client := startCluster(t, 3, 64, sizes, nil)
	for f := 0; f < 2; f++ {
		for entry := 0; entry < 3; entry++ {
			if _, err := client.ReadVia(entry, block.FileID(f)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for f := 0; f < 2; f++ {
		for idx := int32(0); idx < testGeom.Count(4096); idx++ {
			id := block.ID{File: block.FileID(f), Idx: idx}
			masters := 0
			for _, n := range nodes {
				if n.store.IsMaster(id) {
					masters++
				}
			}
			if masters != 1 {
				t.Errorf("block %v has %d masters", id, masters)
			}
		}
	}
}

func TestDirectoryManagersSpread(t *testing.T) {
	sizes := map[block.FileID]int64{}
	for f := 0; f < 40; f++ {
		sizes[block.FileID(f)] = 1024
	}
	nodes, client := startCluster(t, 4, 256, sizes, nil)
	for f := 0; f < 40; f++ {
		if _, err := client.Read(block.FileID(f)); err != nil {
			t.Fatal(err)
		}
	}
	// Directory entries must be spread over multiple managers, not on one
	// node.
	withEntries := 0
	for _, n := range nodes {
		if n.dirSrv.size() > 0 {
			withEntries++
		}
	}
	if withEntries < 3 {
		t.Fatalf("directory entries on %d nodes, want spread over ≥3", withEntries)
	}
}

func TestDirectoryWrites(t *testing.T) {
	sizes := map[block.FileID]int64{0: 2048}
	_, client := startCluster(t, 3, 64, sizes, nil)
	if _, err := client.Read(0); err != nil {
		t.Fatal(err)
	}
	v := bytes.Repeat([]byte{0x3C}, 1024)
	if err := client.Write(0, 1, v); err != nil {
		t.Fatal(err)
	}
	got, err := client.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[1024:], v) {
		t.Fatal("write not visible")
	}
}

// lookup reads id's entry: the master it names, and whether there is one.
func (d *dirServer) lookup(id block.ID) (int32, bool) {
	m := d.lookupN(id.File, []int32{id.Idx}, nil)[0]
	return m, m != dirNoEntry
}

// entries lists the blocks d holds an entry for.
func (d *dirServer) entries() []block.ID {
	d.mu.Lock()
	defer d.mu.Unlock()
	ids := make([]block.ID, 0, len(d.masters))
	for id := range d.masters {
		ids = append(ids, id)
	}
	return ids
}

// TestDirectoryFollowsRing pins the one placement function: the node that
// answers a block's directory RPCs is view.home(file), and a 4 -> 5 join therefore moves the manager of about a
// fifth of the files (the mod-N map it replaced moved about four fifths).
func TestDirectoryFollowsRing(t *testing.T) {
	old := newMemberView(1, allAlive(4))
	grown := newMemberView(2, allAlive(5))
	const files = 10000
	moved := 0
	for f := block.FileID(0); f < files; f++ {
		ho, _ := old.home(f)
		hg, _ := grown.home(f)
		if ho != hg {
			moved++
		}
	}
	if moved == 0 || moved >= files*35/100 {
		t.Fatalf("a 4 -> 5 join moved the manager of %d of %d files, want under 35%%", moved, files)
	}

	sizes := map[block.FileID]int64{}
	for f := block.FileID(0); f < 16; f++ {
		sizes[f] = 2048
	}
	nodes, client := startCluster(t, 4, 64, sizes, nil)
	for f := range sizes {
		if _, err := client.ReadVia(RingHome(f, 4), f); err != nil {
			t.Fatal(err)
		}
	}
	for i, n := range nodes {
		for _, id := range n.dirSrv.entries() {
			if h, _ := n.home(id.File); h != i {
				t.Errorf("node %d holds an entry of file %d, homed on %d", i, id.File, h)
			}
		}
	}
	for f := range sizes {
		if _, ok := dirOf(t, nodes, f).lookup(block.ID{File: f, Idx: 1}); !ok {
			t.Errorf("file %d has no entry on its home", f)
		}
	}
}

// TestDirectoryHasNoFixedNode: no node is the directory. With node 0 down,
// files homed on the survivors still resolve their masters, so a second
// entry reads them out of the first entry's memory.
func TestDirectoryHasNoFixedNode(t *testing.T) {
	sizes := map[block.FileID]int64{}
	for f := block.FileID(0); f < 16; f++ {
		sizes[f] = 4096
	}
	nodes, client := startCluster(t, 4, 256, sizes, nil)
	var blocks uint64
	for f := range sizes {
		if h, _ := nodes[1].home(f); h == 0 {
			delete(sizes, f)
			continue
		}
		blocks += 4
		if _, err := client.ReadVia(1, f); err != nil {
			t.Fatal(err)
		}
	}
	nodes[0].Close()
	for f := range sizes {
		got, err := client.ReadVia(2, f)
		if err != nil {
			t.Fatalf("file %d with node 0 down: %v", f, err)
		}
		if !bytes.Equal(got, expect(testGeom, f, sizes[f])) {
			t.Fatalf("file %d: content mismatch", f)
		}
	}
	st := nodes[2].Stats()
	if blocks == 0 || st.RemoteHits != blocks || st.DiskReads != 0 || st.RPCFailures != 0 || st.BreakerSkips != 0 {
		t.Fatalf("remote hits %d, disk reads %d, RPC failures %d, breaker skips %d; want %d, 0, 0, 0",
			st.RemoteHits, st.DiskReads, st.RPCFailures, st.BreakerSkips, blocks)
	}
}

// TestLargeFileStaysCooperative: a read that misses more blocks than one
// directory message carries (maxDirBatch) still resolves every one of them,
// so a file warm on one node is read from that node's memory.
func TestLargeFileStaysCooperative(t *testing.T) {
	const nblocks = maxDirBatch + 44
	sizes := map[block.FileID]int64{1: nblocks * int64(testGeom.Size)}
	nodes, client := startCluster(t, 4, 2*nblocks, sizes, nil)
	if _, err := client.ReadVia(2, 1); err != nil {
		t.Fatal(err)
	}
	got, err := client.ReadVia(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, expect(testGeom, 1, sizes[1])) {
		t.Fatal("content mismatch")
	}
	if st := nodes[3].Stats(); st.RemoteHits != nblocks || st.DiskReads != 0 {
		t.Fatalf("second entry: remote hits %d, disk reads %d; want %d and 0", st.RemoteHits, st.DiskReads, nblocks)
	}
	if n := rpcCount(nodes[3], "dir_lookup_n"); n != 2 {
		t.Fatalf("%d-block window cost %d lookup messages, want 2", nblocks, n)
	}
}

// TestResizeSweepsDirectory: after a 4 -> 5 join every node has dropped the
// entries of the files that moved to the joiner, nothing else, and those
// files resolve again through their new home.
func TestResizeSweepsDirectory(t *testing.T) {
	sizes := map[block.FileID]int64{}
	const files = 40
	for f := block.FileID(0); f < files; f++ {
		sizes[f] = 2048
	}
	nodes, client := startCluster(t, 4, 256, sizes, nil)
	for f := block.FileID(0); f < files; f++ {
		if _, err := client.ReadVia(int(f)%4, f); err != nil {
			t.Fatal(err)
		}
	}
	entries := func() (total int) {
		for _, n := range nodes {
			total += n.dirSrv.size()
		}
		return total
	}
	if got := entries(); got != 2*files {
		t.Fatalf("%d directory entries before the join, want %d", got, 2*files)
	}

	joiner, err := Start(Config{
		ID: 4, CapacityBlocks: 256, Policy: core.PolicyMaster,
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

	moved := 0
	for f := block.FileID(0); f < files; f++ {
		if h, _ := joiner.home(f); h == 4 {
			moved++
		}
	}
	if moved == 0 {
		t.Fatalf("no file of %d moved to the joiner", files)
	}
	if got := entries(); got != 2*(files-moved) {
		t.Fatalf("%d directory entries after %d files moved, want %d", got, moved, 2*(files-moved))
	}
	for i, n := range nodes {
		for _, id := range n.dirSrv.entries() {
			if h, _ := n.home(id.File); h != i {
				t.Errorf("node %d kept an entry of file %d, now homed on %d", i, id.File, h)
			}
		}
	}

	if err := client.RefreshMembership(); err != nil {
		t.Fatal(err)
	}
	for f := block.FileID(0); f < files; f++ {
		for entry := range nodes {
			got, err := client.ReadVia(entry, f)
			if err != nil {
				t.Fatalf("file %d via node %d after the join: %v", f, entry, err)
			}
			if !bytes.Equal(got, expect(testGeom, f, sizes[f])) {
				t.Fatalf("file %d via node %d: content mismatch after the join", f, entry)
			}
		}
	}
	if got := joiner.dirSrv.size(); got != 2*moved {
		t.Fatalf("the joiner manages %d entries, want %d (two blocks of each moved file)", got, 2*moved)
	}
}

// TestInvalidationSendsNoRPC: applying a peer's invalidation costs the old
// master no message. The handler runs on the worker pool of the writer's
// connection, and with every node managing directory entries a handler that
// waited on a directory RPC could wait on a node whose own workers wait on
// this one. The writer has already repointed the entry, so nothing is lost.
func TestInvalidationSendsNoRPC(t *testing.T) {
	f := homedAt(3, 1) // neither the writer nor the old master
	sizes := map[block.FileID]int64{f: 2 * int64(testGeom.Size)}
	nodes, client := startCluster(t, 3, 64, sizes, nil)
	if _, err := client.ReadVia(2, f); err != nil { // node 2 holds the masters
		t.Fatal(err)
	}
	sent := func(n *Node) (sum uint64) {
		for _, h := range n.Stats().RPCLatency {
			sum += h.Count
		}
		return sum
	}
	before := sent(nodes[2])
	id := block.ID{File: f, Idx: 1}
	w, err := DialCluster([]string{nodes[0].Addr()}) // every write enters at node 0
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Write(f, id.Idx, bytes.Repeat([]byte{0x5A}, testGeom.Size)); err != nil {
		t.Fatal(err)
	}
	if !nodes[0].FlushInval(5 * time.Second) {
		t.Fatal("invalidation bus did not drain")
	}
	if nodes[2].store.Contains(id) {
		t.Fatal("the old master kept its copy")
	}
	if after := sent(nodes[2]); after != before {
		t.Fatalf("the invalidated node sent %d RPCs, want 0", after-before)
	}
	if holder, ok := dirOf(t, nodes, f).lookup(id); !ok || holder != 0 {
		t.Fatalf("directory names %d (present %v), want the writer, node 0", holder, ok)
	}
}
