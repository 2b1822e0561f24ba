package middleware

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/obs"
)

// totalRPCs sums every round trip the cluster and client issued, read from
// the per-RPC-type latency histograms (each RPC is recorded exactly once,
// by its issuer).
func totalRPCs(nodes []*Node, client *Client) uint64 {
	var sum uint64
	count := func(m map[string]obs.HistogramData) {
		for _, d := range m {
			sum += d.Count
		}
	}
	for _, n := range nodes {
		count(n.Stats().RPCLatency)
	}
	count(client.RPCLatency())
	return sum
}

func TestPackRunAux(t *testing.T) {
	for _, count := range []int{0, 1, 7, maxRunBlocks} {
		for _, masters := range []uint32{0, 1, 0xAAAA, 0xFFFFFFFF} {
			c, m := unpackRunAux(packRunAux(count, masters))
			if c != count || m != masters {
				t.Errorf("packRunAux(%d, %#x) round-tripped to (%d, %#x)", count, masters, c, m)
			}
		}
	}
}

// splitHomeReply splits a home reply's payload p for span s the way the
// conn receives it: the code head, and the length of the bytes after it.
func splitHomeReply(p []byte, s span) ([]byte, int) {
	head := min(len(p), 4*s.count)
	return p[:head], len(p) - head
}

// TestHomeReplyCodec round-trips home replies that name, serve and skip —
// one names a holder beyond the requester's view, which decodes — and checks
// that the decoder refuses each inconsistency it guards against.
func TestHomeReplyCodec(t *testing.T) {
	s := span{first: 4, count: 4, wanted: 0b1011}
	lens := func(int32) int { return 3 }
	for _, codes := range [][]int32{{homeServed, 2, dirNoEntry, homeServed}, {homeServed, 9, dirNoEntry, homeServed}} {
		p := append(appendHomeCodes(nil, codes), "abcdef"...)
		head, body := splitHomeReply(p, s)
		got, err := decodeHomeReply(packRunAux(2, 0b1000), head, body, s, lens, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(codes) {
			t.Fatalf("decoded %v", got)
		}
		for i := range codes {
			if got[i] != codes[i] {
				t.Fatalf("code %d: %d != %d", i, got[i], codes[i])
			}
		}
	}
	p := append(appendHomeCodes(nil, []int32{homeServed, 2, dirNoEntry, homeServed}), "abcdef"...)
	for name, c := range map[string]struct {
		aux int64
		p   []byte
	}{
		"ragged codes":         {packRunAux(2, 0), p[:13]},
		"served over request":  {packRunAux(5, 0), p},
		"served disagrees":     {packRunAux(1, 0), p},
		"master not served":    {packRunAux(2, 0b0010), p},
		"short body":           {packRunAux(2, 0), p[:len(p)-1]},
		"negative holder":      {packRunAux(2, 0), append(appendHomeCodes(nil, []int32{homeServed, -3, dirNoEntry, homeServed}), "abcdef"...)},
		"holder is requester":  {packRunAux(2, 0), append(appendHomeCodes(nil, []int32{homeServed, 0, dirNoEntry, homeServed}), "abcdef"...)},
		"unwanted block named": {packRunAux(2, 0), append(appendHomeCodes(nil, []int32{homeServed, 2, 1, homeServed}), "abcdef"...)},
	} {
		head, body := splitHomeReply(c.p, s)
		if codes, err := decodeHomeReply(c.aux, head, body, s, lens, 0); err == nil || codes != nil {
			t.Errorf("%s: accepted (%v, %v)", name, codes, err)
		}
	}
}

func TestStoreGetRun(t *testing.T) {
	s := NewStore(16, core.PolicyMaster)
	mk := func(idx int32) []byte { return SyntheticBlock(1, idx, 64) }
	// Blocks 0,1,2 cached (1 a master), 3 missing, 4 cached.
	s.Insert(block.ID{File: 1, Idx: 0}, mk(0), false)
	s.Insert(block.ID{File: 1, Idx: 1}, mk(1), true)
	s.Insert(block.ID{File: 1, Idx: 2}, mk(2), false)
	s.Insert(block.ID{File: 1, Idx: 4}, mk(4), false)

	bufs, masters := s.GetRun(1, 0, 8, nil)
	if len(bufs) != 3 {
		t.Fatalf("served %d blocks, want 3 (stop at the gap)", len(bufs))
	}
	if masters != 0b010 {
		t.Fatalf("master mask %#b, want 0b010", masters)
	}
	for i, pb := range bufs {
		if !bytes.Equal(pb.data, mk(int32(i))) {
			t.Fatalf("run block %d payload mismatch", i)
		}
		pb.release()
	}
	// A run starting at the gap serves nothing.
	if bufs, _ := s.GetRun(1, 3, 8, nil); len(bufs) != 0 {
		t.Fatalf("gap start served %d blocks", len(bufs))
	}
}

// TestStoreGetRunPinsAcrossEviction is the zero-copy safety property: a run
// reference pinned before an eviction storm keeps its bytes intact even
// though the store has recycled the block's slot.
func TestStoreGetRunPinsAcrossEviction(t *testing.T) {
	s := NewStore(4, core.PolicyBasic)
	mk := func(f block.FileID, idx int32) []byte { return SyntheticBlock(f, idx, 64) }
	for i := int32(0); i < 4; i++ {
		s.Insert(block.ID{File: 1, Idx: i}, mk(1, i), false)
	}
	bufs, _ := s.GetRun(1, 0, 4, nil)
	if len(bufs) != 4 {
		t.Fatalf("served %d blocks, want 4", len(bufs))
	}
	// Evict everything the run points at.
	for i := int32(0); i < 4; i++ {
		if ev := s.Insert(block.ID{File: 2, Idx: i}, mk(2, i), false); ev != nil {
			ev.Release()
		}
	}
	for i, pb := range bufs {
		if !bytes.Equal(pb.data, mk(1, int32(i))) {
			t.Fatalf("pinned run block %d mutated by eviction", i)
		}
		pb.release()
	}
}

func TestStoreInsertRun(t *testing.T) {
	s := NewStore(4, core.PolicyBasic)
	mk := func(f block.FileID, idx int32) []byte { return SyntheticBlock(f, idx, 64) }
	// Pre-fill with old blocks of file 9 so the run insert must evict.
	s.Insert(block.ID{File: 9, Idx: 0}, mk(9, 0), true)
	s.Insert(block.ID{File: 9, Idx: 1}, mk(9, 1), false)

	blocks := []*payloadBuf{
		copyPayloadBuf(mk(2, 3)), copyPayloadBuf(mk(2, 4)),
		copyPayloadBuf(mk(2, 5)), copyPayloadBuf(mk(2, 6)),
	}
	evs := s.InsertRun(2, 3, blocks, true)
	if len(evs) != 2 {
		t.Fatalf("%d evictions, want 2", len(evs))
	}
	if !evs[0].Master || evs[0].ID != (block.ID{File: 9, Idx: 0}) {
		t.Fatalf("first eviction %+v, want the oldest (master 9:0)", evs[0])
	}
	if s.Len() != 4 {
		t.Fatalf("store holds %d blocks, want capacity 4", s.Len())
	}
	for i := int32(3); i <= 6; i++ {
		id := block.ID{File: 2, Idx: i}
		data, ok := s.Get(id)
		if !ok || !bytes.Equal(data, mk(2, i)) {
			t.Fatalf("run block %v missing or wrong after InsertRun", id)
		}
		if !s.IsMaster(id) {
			t.Fatalf("run block %v not installed as master", id)
		}
	}
}

// TestRunPathColdRPCCount pins what a cold multi-block file read through a
// non-home entry node costs: 64 disk reads in eight 8-block spans, none
// degraded, and 13 round trips — the client's read, one MsgGetRun per span
// (the home reads, claims and serves in the one handler), and the four
// stats RPCs of ClusterStats. It was 22 while a miss also sent a batched
// directory lookup and one batched update per run (last in commit e3e0d10);
// the per-block protocol before that (last in 0c12ba4) paid about ten times
// as many.
func TestRunPathColdRPCCount(t *testing.T) {
	const nblocks = 64
	f := homedAt(4, 1)
	sizes := map[block.FileID]int64{f: nblocks * int64(testGeom.Size)}
	nodes, client := startCluster(t, 4, 256, sizes, nil)
	// Entry node 3, home node 1, which also manages the file's directory
	// entries: every span crosses the wire to node 1.
	data, err := client.ReadVia(3, f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, expect(testGeom, f, sizes[f])) {
		t.Fatal("content mismatch")
	}
	st, err := client.ClusterStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Accesses != nblocks || st.DiskReads != nblocks || st.LocalHits != 0 || st.RemoteHits != 0 {
		t.Fatalf("cold read: accesses=%d disk=%d local=%d remote=%d, want %d disk reads and nothing else",
			st.Accesses, st.DiskReads, st.LocalHits, st.RemoteHits, nblocks)
	}
	if st.RunsIssued != nblocks/readWindow || st.RunsDegraded != 0 {
		t.Fatalf("runs issued=%d degraded=%d, want %d and 0", st.RunsIssued, st.RunsDegraded, nblocks/readWindow)
	}
	if rpcs := totalRPCs(nodes, client); rpcs != 13 {
		t.Fatalf("cold %d-block read cost %d RPCs, want 13", nblocks, rpcs)
	}
	for i := int32(0); i < nblocks; i++ {
		if holder, ok := dirOf(t, nodes, f).lookup(block.ID{File: f, Idx: i}); !ok || holder != 3 {
			t.Fatalf("block %d: directory names %d (present %v), want the entry, node 3", i, holder, ok)
		}
	}
}

// TestHomeNamesHolderOutsideView: during a join the home may run the newer
// view and name the joiner as a block's master while the requester's view
// does not hold it yet. The fetch from the unknown holder fails into a race
// miss, whose source read at the home serves the block and records the
// requester, so neither a span read nor a one-block read fails.
func TestHomeNamesHolderOutsideView(t *testing.T) {
	const nblocks = 4
	f := homedAt(3, 1)
	sizes := map[block.FileID]int64{f: nblocks * int64(testGeom.Size)}
	nodes, client := startCluster(t, 3, 64, sizes, nil)
	dir := dirOf(t, nodes, f)
	const joiner = 3 // the next member ID: every view here has 3 members
	dir.updateN(f, []int32{0, 1, 2, 3}, joiner)

	data, err := client.ReadVia(0, f)
	if err != nil {
		t.Fatalf("span read with the joiner named: %v", err)
	}
	if !bytes.Equal(data, expect(testGeom, f, sizes[f])) {
		t.Fatal("content mismatch")
	}
	if st := nodes[0].Stats(); st.RaceMisses != nblocks || st.DiskReads != nblocks {
		t.Fatalf("race misses %d, disk reads %d; want %d each", st.RaceMisses, st.DiskReads, nblocks)
	}
	for i := int32(0); i < nblocks; i++ {
		if holder, _ := dir.lookup(block.ID{File: f, Idx: i}); holder != 0 {
			t.Fatalf("block %d: directory names %d, want the reader, node 0", i, holder)
		}
	}

	id := block.ID{File: f, Idx: 2}
	dir.updateN(f, []int32{id.Idx}, joiner)
	got, err := nodes[2].GetBlock(id)
	if err != nil {
		t.Fatalf("one-block read with the joiner named: %v", err)
	}
	if !bytes.Equal(got, SyntheticBlock(f, id.Idx, testGeom.Size)) {
		t.Fatal("one-block content mismatch")
	}
	if holder, _ := dir.lookup(id); holder != 2 {
		t.Fatalf("directory names %d after the one-block read, want the reader, node 2", holder)
	}
}

// TestRunPathWarmRemoteRun follows one file through all four entries of a
// default cluster: the demand copies of §3, which are the only replication
// the live path has. The first read through each entry leaves a copy there:
// the source is read once per block, the first reader holds the masters, the
// other three pull peer runs and keep non-master copies. A second pass is all
// local hits and not one RPC beyond the client's own. A write followed by a
// flush leaves exactly the writer's copy, and the other entries re-fetch it
// from the writer's memory.
func TestRunPathWarmRemoteRun(t *testing.T) {
	const k, nblocks, written = 4, 12, 5
	sizes := map[block.FileID]int64{1: nblocks * int64(testGeom.Size)}
	nodes, client := startCluster(t, k, 256, sizes, nil)
	want := expect(testGeom, 1, sizes[1])
	readAll := func(pass string) {
		t.Helper()
		for e := 0; e < k; e++ {
			data, err := client.ReadVia(e, 1)
			if err != nil {
				t.Fatalf("%s: read via %d: %v", pass, e, err)
			}
			if !bytes.Equal(data, want) {
				t.Fatalf("%s: content mismatch via %d", pass, e)
			}
		}
	}
	// Summed from the nodes themselves: ClusterStats would add RPCs.
	sum := func() (s Stats) {
		for _, n := range nodes {
			st := n.Stats()
			s.Accesses += st.Accesses
			s.LocalHits += st.LocalHits
			s.RemoteHits += st.RemoteHits
			s.DiskReads += st.DiskReads
			s.RunsIssued += st.RunsIssued
		}
		return s
	}
	// holders reports which nodes cache id and which hold it as the master.
	holders := func(id block.ID) (held, masters []int) {
		for i, n := range nodes {
			if n.store.Contains(id) {
				held = append(held, i)
			}
			if n.store.IsMaster(id) {
				masters = append(masters, i)
			}
		}
		return held, masters
	}

	readAll("pass one")
	one := sum()
	if one.Accesses != k*nblocks || one.DiskReads != nblocks || one.RemoteHits != (k-1)*nblocks || one.LocalHits != 0 {
		t.Fatalf("pass one: accesses=%d disk=%d remote=%d local=%d, want %d source reads, %d remote hits and no local hit",
			one.Accesses, one.DiskReads, one.RemoteHits, one.LocalHits, nblocks, (k-1)*nblocks)
	}
	if one.RunsIssued == 0 {
		t.Fatal("peer fetch did not use the run path")
	}
	for i := int32(0); i < nblocks; i++ {
		id := block.ID{File: 1, Idx: i}
		if held, masters := holders(id); len(held) != k || len(masters) != 1 || masters[0] != 0 {
			t.Fatalf("block %v after pass one: held by %v, masters %v, want every entry and the first reader's master", id, held, masters)
		}
	}

	rpcs := totalRPCs(nodes, client)
	readAll("pass two")
	two := sum()
	if two.LocalHits-one.LocalHits != k*nblocks || two.RemoteHits != one.RemoteHits || two.DiskReads != one.DiskReads {
		t.Fatalf("pass two: local +%d remote +%d disk +%d, want %d local hits and nothing else",
			two.LocalHits-one.LocalHits, two.RemoteHits-one.RemoteHits, two.DiskReads-one.DiskReads, k*nblocks)
	}
	if d := totalRPCs(nodes, client) - rpcs; d != k {
		t.Fatalf("pass two cost %d RPCs, want the client's %d reads and no peer or directory RPC", d, k)
	}

	patch := bytes.Repeat([]byte{0xAB}, testGeom.Size)
	if err := client.Write(1, written, patch); err != nil {
		t.Fatal(err)
	}
	for i, n := range nodes {
		if !n.FlushInval(5 * time.Second) {
			t.Fatalf("node %d: invalidation bus did not drain", i)
		}
	}
	id := block.ID{File: 1, Idx: written}
	held, masters := holders(id)
	if len(held) != 1 || len(masters) != 1 || held[0] != masters[0] {
		t.Fatalf("after the write and the flush %v is held by %v, masters %v, want the writer's master alone", id, held, masters)
	}
	copy(want[written*testGeom.Size:], patch)
	readAll("after the write")
	three := sum()
	if three.RemoteHits-two.RemoteHits != k-1 || three.DiskReads != two.DiskReads {
		t.Fatalf("re-fetch after the write: remote +%d disk +%d, want %d remote hits from the writer's memory and no source read",
			three.RemoteHits-two.RemoteHits, three.DiskReads-two.DiskReads, k-1)
	}
	if held, again := holders(id); len(held) != k || len(again) != 1 || again[0] != masters[0] {
		t.Fatalf("after the re-fetch %v is held by %v, masters %v, want every entry and the writer's master", id, held, again)
	}
}

// TestRunPathPartialRunFallsBack: a peer run that can only serve a prefix
// (gap in the peer's cache) is completed per-block, not failed.
func TestRunPathPartialRunFallsBack(t *testing.T) {
	const nblocks = 8
	f := homedAt(3, 1)
	sizes := map[block.FileID]int64{f: nblocks * int64(testGeom.Size)}
	nodes, client := startCluster(t, 3, 256, sizes, nil)

	// Warm node 2, which the home (node 1) then names for every block, and
	// punch a hole in its cache so node 0's run hits a gap mid-run.
	if _, err := client.ReadVia(2, f); err != nil {
		t.Fatal(err)
	}
	nodes[2].store.Remove(block.ID{File: f, Idx: 3})

	data, err := client.ReadVia(0, f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, expect(testGeom, f, sizes[f])) {
		t.Fatal("content mismatch after degraded run")
	}
	s0 := nodes[0].Stats()
	if s0.RunsDegraded == 0 {
		t.Fatal("the holed run was not counted as degraded")
	}
	// Every block was still served: 7 from the peer's memory, the removed
	// one from disk via its home.
	if s0.RemoteHits != nblocks-1 || s0.DiskReads != 1 || s0.LocalHits != 0 {
		t.Fatalf("remote hits %d, disk reads %d, local hits %d; want %d, 1, 0", s0.RemoteHits, s0.DiskReads, s0.LocalHits, nblocks-1)
	}
}

// TestReadRangeRunEquivalence checks ranged reads through the run planner
// against the expected bytes at block-boundary and mid-block offsets, cold
// and warm, including the presized buffer's edge cases (unaligned head,
// clipped tail, short last block). Each case reads its own file, so each
// starts cold.
func TestReadRangeRunEquivalence(t *testing.T) {
	bs := int64(testGeom.Size)
	size := 6*bs + 100 // short last block

	cases := []struct {
		off    int64
		length int
	}{
		{0, int(size)},              // whole file
		{0, int(bs)},                // first block exactly
		{bs, int(2 * bs)},           // block-boundary start and end
		{bs + 7, int(bs)},           // mid-block start, mid-block end
		{3*bs - 1, 2},               // straddles a boundary by one byte
		{5, 3},                      // tiny range inside block 0
		{6 * bs, 100},               // exactly the short last block
		{6*bs + 40, 1000},           // clipped by EOF
		{size, 10},                  // at EOF: empty
		{2*bs + 13, int(3*bs + 50)}, // long unaligned range over several blocks
	}
	sizes := map[block.FileID]int64{}
	for f := range cases {
		sizes[block.FileID(f)] = size
	}
	nodes, _ := startCluster(t, 2, 256, sizes, nil)

	for f, c := range cases {
		file := block.FileID(f) // the ring homes some files at the entry, the rest at the peer
		end := min64(c.off+int64(c.length), size)
		want := expect(testGeom, file, size)[c.off:end]
		before := nodes[0].Stats()
		for _, temp := range []string{"cold", "warm"} {
			got, err := nodes[0].ReadRange(file, c.off, c.length)
			if err != nil {
				t.Fatalf("%s ReadRange(%d, %d): %v", temp, c.off, c.length, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s ReadRange(%d, %d): %d bytes diverged", temp, c.off, c.length, len(got))
			}
		}
		// The cold read misses every block it covers, the warm one hits them.
		after := nodes[0].Stats()
		nb := uint64(0)
		if len(want) > 0 {
			nb = uint64((end-1)/bs - c.off/bs + 1)
		}
		if d, l := after.DiskReads-before.DiskReads, after.LocalHits-before.LocalHits; d != nb || l != nb {
			t.Fatalf("ReadRange(%d, %d): %d disk reads, %d local hits, want %d each", c.off, c.length, d, l, nb)
		}
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// TestGetRunRequestValidation: the server rejects nonsense run counts
// instead of serving unbounded work.
func TestGetRunRequestValidation(t *testing.T) {
	sizes := map[block.FileID]int64{0: 4 * int64(testGeom.Size)}
	nodes, _ := startCluster(t, 1, 16, sizes, nil)
	for _, count := range []int{0, maxRunBlocks + 1} {
		req := &Frame{Type: MsgGetRun, File: 0, Idx: 0, Aux: packRunAux(count, 0), Sender: -1}
		resp := nodes[0].handleGetRun(req)
		if resp.Type != MsgErr {
			t.Fatalf("run count %d accepted (reply type %d)", count, resp.Type)
		}
		releaseFrame(resp)
	}
}

// TestRunFillLandsPerBlock follows the two receive paths of a span fill.
// A cold read through entry 0 takes a home reply from node 1. A read through
// entry 2 then takes a peer run from node 0, which the home names. Each
// fill installs the source's bytes with the §3 counters: disk reads and
// masters at node 0, remote hits and copies at node 2. Every installed
// block sits in an arena frame of its own, so no block pins a whole reply.
func TestRunFillLandsPerBlock(t *testing.T) {
	const nblocks = 6
	f := homedAt(3, 1)
	size := int64(nblocks-1)*int64(testGeom.Size) + 100 // a short last block
	sizes := map[block.FileID]int64{f: size}
	nodes, client := startCluster(t, 3, 256, sizes, nil)
	want := expect(testGeom, f, size)
	for _, entry := range []int{0, 2} {
		data, err := client.ReadVia(entry, f)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, want) {
			t.Fatalf("content mismatch via %d", entry)
		}
	}
	s0, s2 := nodes[0].Stats(), nodes[2].Stats()
	if s0.Accesses != nblocks || s0.DiskReads != nblocks || s0.RemoteHits != 0 {
		t.Fatalf("node 0: accesses=%d disk=%d remote=%d, want %d disk reads", s0.Accesses, s0.DiskReads, s0.RemoteHits, nblocks)
	}
	if s2.Accesses != nblocks || s2.RemoteHits != nblocks || s2.DiskReads != 0 || s2.RunsDegraded != 0 {
		t.Fatalf("node 2: accesses=%d remote=%d disk=%d degraded=%d, want %d remote hits from one run",
			s2.Accesses, s2.RemoteHits, s2.DiskReads, s2.RunsDegraded, nblocks)
	}
	var cached []*payloadBuf
	for _, i := range []int{0, 2} {
		for idx := int32(0); idx < nblocks; idx++ {
			id := block.ID{File: f, Idx: idx}
			pb, ok := nodes[i].store.GetRef(id)
			if !ok {
				t.Fatalf("node %d does not cache %v", i, id)
			}
			cached = append(cached, pb)
			if !bytes.Equal(pb.data, SyntheticBlock(f, idx, blockLen(testGeom, size, idx))) {
				t.Fatalf("node %d: %v differs from the source", i, id)
			}
			if master := nodes[i].store.IsMaster(id); master != (i == 0) {
				t.Fatalf("node %d: %v master %v", i, id, master)
			}
		}
	}
	if err := ownFrameErr(cached); err != nil {
		t.Fatal(err)
	}
	releasePins(cached)
}
