package middleware

import (
	"bytes"
	"runtime"
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
	m := d.lookupN(id.File, id.Idx, 1, nil)[0]
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

// TestLargeFileStaysCooperative: a read that misses far more blocks than one
// home request carries still has every one of them named, so a file warm on
// one node is read from that node's memory, and no directory message is
// sent for it.
func TestLargeFileStaysCooperative(t *testing.T) {
	const nblocks = 300
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
	for typ := range nodes[3].Stats().RPCLatency {
		if typ != "get_run" {
			t.Fatalf("the second entry sent %s, want nothing but runs", typ)
		}
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

// TestWriteClaimsAtHomeInOneRPC: a write through a node that is not the
// file's home costs the writer one round trip to the home — the
// write-through, whose handler records the writer as the new master — and
// the home's directory names the writer by the time WriteBlock returns.
// Until commit e3e0d10 it cost two: the write-through, then a directory
// update. The invalidation bus's frames are the writer's other traffic.
func TestWriteClaimsAtHomeInOneRPC(t *testing.T) {
	f := homedAt(3, 1)
	sizes := map[block.FileID]int64{f: int64(testGeom.Size)}
	nodes, _ := startCluster(t, 3, 64, sizes, nil)
	id := block.ID{File: f, Idx: 0}
	if err := nodes[0].WriteBlock(id, bytes.Repeat([]byte{0x6B}, testGeom.Size)); err != nil {
		t.Fatal(err)
	}
	if holder, ok := dirOf(t, nodes, f).lookup(id); !ok || holder != 0 {
		t.Fatalf("directory names %d (present %v) after the write, want the writer, node 0", holder, ok)
	}
	for typ, h := range nodes[0].Stats().RPCLatency {
		if typ != "invalidate_n" && (typ != "put_block" || h.Count != 1) {
			t.Fatalf("the writer sent %d %s, want one put_block and bus frames", h.Count, typ)
		}
	}
}

// TestForwardKeepsNewerClaim: an evicted master's forward is recorded at
// the directory by the target, a compare-and-set from the evicting node.
// When a writer has claimed the block in the meantime its claim stands;
// when the entry still names the evicting node it moves to the target; and
// a forward nobody can take drops only the evicting node's entry. The
// frames are one-way, so the outcomes are read once they have landed.
func TestForwardKeepsNewerClaim(t *testing.T) {
	f := homedAt(3, 1)
	sizes := map[block.FileID]int64{f: 2 * int64(testGeom.Size)}
	nodes, _ := startCluster(t, 3, 64, sizes, nil)
	dir := dirOf(t, nodes, f)
	evictor, target := nodes[2], int32(1)
	// Ages only grow, so the target always holds something older than the
	// next forward, or, at age 0, no peer holds anything older.
	evict := func(idx int32, age int64) *Evicted {
		return &Evicted{ID: block.ID{File: f, Idx: idx}, Master: true, Age: age, Data: SyntheticBlock(f, idx, testGeom.Size)}
	}
	entry := func(idx int32) int32 {
		holder, _ := dir.lookup(block.ID{File: f, Idx: idx})
		return holder
	}

	evictor.peers.get(int(target)).age.Store(1)
	dir.updateN(f, []int32{0}, 0) // a writer, node 0, claimed block 0
	dir.updateN(f, []int32{1}, 2) // block 1 still names the evictor
	evictor.forwardEvicted(evict(0, 1<<40))
	evictor.forwardEvicted(evict(1, 1<<40+1))
	waitFor(t, 5*time.Second, "the target to take both forwards", func() bool {
		st := nodes[target].Stats()
		return st.Forwards+st.ForwardsRejected == 2
	})
	waitFor(t, 5*time.Second, "block 1's entry to move to the target", func() bool { return entry(1) == target })
	if holder := entry(0); holder != 0 {
		t.Fatalf("block 0: directory names %d after the forward, want the writer, node 0", holder)
	}
	if st := nodes[target].Stats(); st.Forwards != 2 || st.ForwardsRejected != 0 {
		t.Fatalf("the target counted forwards %d, rejected %d; want 2 and 0", st.Forwards, st.ForwardsRejected)
	}

	dir.updateN(f, []int32{0}, 0)
	dir.updateN(f, []int32{1}, 2)
	evictor.forwardEvicted(evict(0, 0))
	evictor.forwardEvicted(evict(1, 0))
	waitFor(t, 5*time.Second, "block 1's entry to be dropped", func() bool { return entry(1) == dirNoEntry })
	if holder, ok := dir.lookup(block.ID{File: f, Idx: 0}); !ok || holder != 0 {
		t.Fatalf("block 0: directory names %d (present %v) after the drop, want the writer, node 0", holder, ok)
	}
}

// TestForwardIsOneWay: an eviction forward costs no round trip. The
// evictor writes the block and waits on nothing; the target records the
// outcome at the home with one-way directory frames: its own name on
// accept, none on refusal, and none for a master the accept displaced.
// Until the forward became one-way, the evictor paid a directory round trip
// and a forward round trip for each.
func TestForwardIsOneWay(t *testing.T) {
	f := homedAt(3, 0)
	sizes := map[block.FileID]int64{f: 3 * int64(testGeom.Size)}
	nodes, _ := startCluster(t, 3, 64, sizes, func(i int, cfg *Config) {
		if i == 1 {
			cfg.CapacityBlocks = 1 // the target: room for one block
		}
	})
	dir := dirOf(t, nodes, f)
	evictor, target := nodes[2], nodes[1]
	entry := func(idx int32) int32 {
		holder, _ := dir.lookup(block.ID{File: f, Idx: idx})
		return holder
	}
	forward := func(idx int32, age int64) {
		// The target reads as older than every forward, so each one is
		// sent; the target's store decides.
		evictor.peers.get(1).age.Store(1)
		dir.updateN(f, []int32{idx}, 2)
		evictor.forwardEvicted(&Evicted{ID: block.ID{File: f, Idx: idx}, Master: true, Age: age, Data: SyntheticBlock(f, idx, testGeom.Size)})
	}

	// Accepted into the empty target.
	forward(0, 1<<40)
	waitFor(t, 5*time.Second, "block 0's entry to name the target", func() bool { return entry(0) == 1 })
	// Accepted, displacing the master of block 0, which is dropped.
	forward(1, 1<<40+1)
	waitFor(t, 5*time.Second, "block 1's entry to name the target", func() bool { return entry(1) == 1 })
	waitFor(t, 5*time.Second, "the displaced block 0's entry to be dropped", func() bool { return entry(0) == dirNoEntry })
	// Refused: everything at the target is younger. The target drops the
	// evictor's entry.
	forward(2, 5)
	waitFor(t, 5*time.Second, "the refused block 2's entry to be dropped", func() bool { return entry(2) == dirNoEntry })
	if target.store.Contains(block.ID{File: f, Idx: 2}) {
		t.Fatal("the target cached a forward it refused")
	}

	const n = 3
	var forwards, rejected uint64
	for _, node := range nodes {
		st := node.Stats()
		forwards += st.Forwards
		rejected += st.ForwardsRejected
	}
	if forwards+rejected != n || forwards != 2 || rejected != 1 {
		t.Fatalf("cluster counted forwards %d, rejected %d; want 2 and 1 of %d", forwards, rejected, n)
	}
	for name, node := range map[string]*Node{"evictor": evictor, "target": target} {
		for _, typ := range []string{"forward", "dir_drop"} {
			if h, ok := node.Stats().RPCLatency[typ]; ok {
				t.Errorf("the %s recorded %d %s round trips, want 0", name, h.Count, typ)
			}
		}
	}
}

// TestForwardedBlockEvictedAgain: a target with room for one block accepts
// a forward and evicts the block onward at once. The home is a fourth node,
// so the target's repoint (evictor → target) and the next holder's
// (target → next) reach it on different conns, in either order. The entry
// must end on the next holder, or on none when the second landed first,
// never on the target, which no longer holds the block.
func TestForwardedBlockEvictedAgain(t *testing.T) {
	const evictorID, targetID, nextID = 0, 1, 2
	f := homedAt(4, 3)
	sizes := map[block.FileID]int64{f: 2 * int64(testGeom.Size)}
	nodes, _ := startCluster(t, 4, 64, sizes, func(i int, cfg *Config) {
		if i == targetID {
			cfg.CapacityBlocks = 1
		}
	})
	dir := dirOf(t, nodes, f)
	evictor, target, next := nodes[evictorID], nodes[targetID], nodes[nextID]
	x := block.ID{File: f, Idx: 0}
	const age = 1 << 40
	// The next holder caches a block older than x, so the age it
	// piggybacks and the age the target is told agree.
	next.store.AcceptForward(block.ID{File: f, Idx: 1}, SyntheticBlock(f, 1, testGeom.Size), 1)
	target.peers.get(nextID).age.Store(1)
	evictor.peers.get(targetID).age.Store(1)
	dir.updateN(f, []int32{x.Idx}, evictorID)

	evictor.forwardEvicted(&Evicted{ID: x, Master: true, Age: age, Data: SyntheticBlock(f, x.Idx, testGeom.Size)})
	deadline := time.Now().Add(5 * time.Second)
	for !target.store.Contains(x) {
		if time.Now().After(deadline) {
			t.Fatal("the target never cached the forwarded block")
		}
		runtime.Gosched()
	}
	// A new block displaces x, the target's one and oldest, at once: the
	// target forwards it on to the next holder.
	y := block.ID{File: homedAt(4, 0), Idx: 0}
	target.insertBlockBuf(y, copyPayloadBuf(SyntheticBlock(y.File, y.Idx, testGeom.Size)), true)

	waitFor(t, 5*time.Second, "the next holder to take the block", func() bool { return next.Stats().Forwards == 1 })
	deadline = time.Now().Add(5 * time.Second)
	for holder, ok := dir.lookup(x); ok && holder != nextID; holder, ok = dir.lookup(x) {
		if time.Now().After(deadline) {
			t.Fatalf("x's entry names %d, want the next holder, node %d, or none", holder, nextID)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDirRepointAfterPassOnDrops: the home may see a block's repoint
// onward (target → next) before the repoint that named the target
// (evictor → target), since each comes from the node it names on that
// node's conn. The early one is refused, and when the late one lands the
// entry is dropped, not pointed at a node that has passed the block on. A
// claim clears the record, and the record never holds more than maxPassed
// blocks.
func TestDirRepointAfterPassOnDrops(t *testing.T) {
	const evictor, target, next = 0, 1, 2
	d := newDirServer()
	id := block.ID{File: 7, Idx: 3}
	d.updateN(id.File, []int32{id.Idx}, evictor)
	d.cas(id, target, next)
	if holder, _ := d.lookup(id); holder != evictor {
		t.Fatalf("entry names %d after the early repoint, want the evictor, node %d", holder, evictor)
	}
	d.cas(id, evictor, target)
	if holder, ok := d.lookup(id); ok {
		t.Fatalf("entry names %d after the late repoint, want none: node %d passed the block on", holder, target)
	}

	d.updateN(id.File, []int32{id.Idx}, evictor)
	d.cas(id, evictor, target)
	d.cas(id, target, next)
	if holder, _ := d.lookup(id); holder != next {
		t.Fatalf("entry names %d after both repoints in order, want the next holder, node %d", holder, next)
	}

	for i := int32(0); i <= maxPassed; i++ {
		d.updateN(8, []int32{i}, evictor)
		d.cas(block.ID{File: 8, Idx: i}, target, next)
	}
	if len(d.passed) > maxPassed {
		t.Fatalf("the home remembers %d blocks' refused repoints, want at most %d", len(d.passed), maxPassed)
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
