package middleware

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
)

// barrierWait is how long a parked reader waits for its companions before
// it fails the test: generous, because it only elapses when the reads it
// waits for are never issued together.
const barrierWait = 10 * time.Second

// barrierSource is a BlockSource that shows whether reads overlap without
// timing anything. With need > 0 a ReadBlock parks until need readers are
// inside together (then all of them leave, and the next need readers form
// the next round), or with oneRound only the first need readers park; it
// records the peak number of readers inside and every block index read.
// failIdx >= 0 makes that block's read fail.
type barrierSource struct {
	*MemSource
	t        *testing.T
	need     int
	oneRound bool
	failIdx  int32

	mu      sync.Mutex
	inside  int
	peak    int
	arrived int
	reads   []int32
	gate    chan struct{}
}

func newBarrierSource(t *testing.T, sizes map[block.FileID]int64, need int) *barrierSource {
	return &barrierSource{
		MemSource: NewMemSource(testGeom, sizes), t: t, need: need, failIdx: -1,
		gate: make(chan struct{}),
	}
}

func (s *barrierSource) ReadBlock(f block.FileID, idx int32) ([]byte, error) {
	s.mu.Lock()
	s.inside++
	if s.inside > s.peak {
		s.peak = s.inside
	}
	s.reads = append(s.reads, idx)
	gate := s.gate
	park := s.need > 0 && !(s.oneRound && s.arrived >= s.need)
	if park {
		if s.arrived++; s.arrived%s.need == 0 {
			close(s.gate)
			s.gate = make(chan struct{})
		}
	}
	s.mu.Unlock()
	if park {
		select {
		case <-gate:
		case <-time.After(barrierWait):
			s.t.Errorf("read of block %d:%d waited %v for %d concurrent readers", f, idx, barrierWait, s.need)
		}
	}
	s.mu.Lock()
	s.inside--
	s.mu.Unlock()
	if idx == s.failIdx {
		return nil, fmt.Errorf("injected failure at block %d", idx)
	}
	return s.MemSource.ReadBlock(f, idx)
}

// seen reports the peak concurrency and the block indices read so far.
func (s *barrierSource) seen() (peak int, reads []int32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peak, append([]int32(nil), s.reads...)
}

// startBarrierCluster starts k nodes that all read through src.
func startBarrierCluster(t *testing.T, k int, src *barrierSource) ([]*Node, *Client) {
	return startCluster(t, k, 256, nil, func(i int, cfg *Config) { cfg.Source = src })
}

func rpcCount(n *Node, typ string) uint64 { return n.Stats().RPCLatency[typ].Count }

// TestRunPathOverlapHomeRun: the blocks of one cold home span are read from
// the source together, whether the home is a peer (serveHome behind
// handleGetRun) or the entry node itself (serveHome called locally).
// The barrier releases only when all eight readers are inside, so a home
// that reads block after block never gets past the first.
func TestRunPathOverlapHomeRun(t *testing.T) {
	f := homedAt(2, 1)
	sizes := map[block.FileID]int64{f: readWindow * int64(testGeom.Size)}
	for _, entry := range []int{0, 1} { // a peer home, then the entry's own
		src := newBarrierSource(t, sizes, readWindow)
		_, client := startBarrierCluster(t, 2, src)
		data, err := client.ReadVia(entry, f)
		if err != nil {
			t.Fatalf("entry %d: %v", entry, err)
		}
		if !bytes.Equal(data, expect(testGeom, f, sizes[f])) {
			t.Fatalf("entry %d: content mismatch", entry)
		}
		if peak, reads := src.seen(); peak != readWindow || len(reads) != readWindow {
			t.Fatalf("entry %d: peak %d concurrent source reads over %d reads, want %d and %d",
				entry, peak, len(reads), readWindow, readWindow)
		}
	}
}

// TestRunPathOverlapBoundedByWindow: a cold 24-block file is three runs of
// eight. Each round of the barrier proves eight reads in flight; the peak
// proves a read never has more than readWindow blocks outstanding.
func TestRunPathOverlapBoundedByWindow(t *testing.T) {
	const nblocks = 3 * readWindow
	sizes := map[block.FileID]int64{1: nblocks * int64(testGeom.Size)}
	for _, entry := range []int{0, 1} {
		src := newBarrierSource(t, sizes, readWindow)
		_, client := startBarrierCluster(t, 2, src)
		data, err := client.ReadVia(entry, 1)
		if err != nil {
			t.Fatalf("entry %d: %v", entry, err)
		}
		if !bytes.Equal(data, expect(testGeom, 1, sizes[1])) {
			t.Fatalf("entry %d: content mismatch", entry)
		}
		if peak, reads := src.seen(); peak != readWindow || len(reads) != nblocks {
			t.Fatalf("entry %d: peak %d concurrent source reads over %d reads, want %d and %d",
				entry, peak, len(reads), readWindow, nblocks)
		}
	}
}

// TestRunPathOverlapAlternatingHolders: a file whose blocks alternate
// between a peer's memory and the home's disk is one span. The home reads
// the four disk blocks together — the barrier needs all four inside the
// source at once, which a block-by-block home never produces — and names
// the peer for the other four, which come back in two peer runs.
func TestRunPathOverlapAlternatingHolders(t *testing.T) {
	const f, nblocks, peer = block.FileID(1), 8, 2
	sizes := map[block.FileID]int64{f: nblocks * int64(testGeom.Size)}
	src := newBarrierSource(t, sizes, 4)
	nodes, client := startBarrierCluster(t, 3, src) // home and directory at 1
	for _, i := range []int32{0, 1, 4, 5} {
		nodes[peer].store.Insert(block.ID{File: f, Idx: i}, SyntheticBlock(f, i, testGeom.Size), true)
	}
	dirOf(t, nodes, f).updateN(f, []int32{0, 1, 4, 5}, peer)
	data, err := client.ReadVia(0, f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, expect(testGeom, f, sizes[f])) {
		t.Fatal("content mismatch")
	}
	if peak, reads := src.seen(); peak != 4 || len(reads) != 4 {
		t.Fatalf("peak %d concurrent source reads over %d reads, want 4 and 4", peak, len(reads))
	}
	if s := nodes[0].Stats(); s.RunsIssued != 3 || s.RunsDegraded != 0 || s.RemoteHits != 4 || s.DiskReads != 4 {
		t.Fatalf("runs issued/degraded %d/%d, remote hits %d, disk reads %d; want 3/0, 4, 4",
			s.RunsIssued, s.RunsDegraded, s.RemoteHits, s.DiskReads)
	}
}

// TestRunPathSourceFailurePrefix: when block k of a home run fails, the run
// serves exactly blocks [0, k) — the blocks after k were read too, and are
// dropped — the per-block fallback reads k again, and the read fails with
// the text the serial home loop produced.
func TestRunPathSourceFailurePrefix(t *testing.T) {
	const f, k = block.FileID(1), 3
	sizes := map[block.FileID]int64{f: readWindow * int64(testGeom.Size)}
	for _, tc := range []struct {
		entry   int
		wantErr string
	}{
		{0, "middleware: remote error: read file 1: middleware: remote error: home read 1:3: injected failure at block 3"},
		{1, "middleware: remote error: read file 1: injected failure at block 3"},
	} {
		// The run's reads leave the source together: a failure on record
		// stops the window starting the blocks after it.
		src := newBarrierSource(t, sizes, readWindow)
		src.oneRound, src.failIdx = true, k
		nodes, client := startBarrierCluster(t, 2, src)
		_, err := client.ReadVia(tc.entry, f)
		if err == nil || err.Error() != tc.wantErr {
			t.Fatalf("entry %d: error %v, want %q", tc.entry, err, tc.wantErr)
		}
		n := nodes[tc.entry]
		for i := int32(0); i < readWindow; i++ {
			if got := n.store.Contains(block.ID{File: f, Idx: i}); got != (i < k) {
				t.Fatalf("entry %d: block %d cached = %v, want the %d-block prefix only", tc.entry, i, got, k)
			}
		}
		if s := n.Stats(); s.DiskReads != k {
			t.Fatalf("entry %d: %d disk reads counted, want %d", tc.entry, s.DiskReads, k)
		}
		if _, reads := src.seen(); len(reads) != readWindow+1 || reads[readWindow] != k {
			t.Fatalf("entry %d: source reads %v, want the run's %d then block %d again", tc.entry, reads, readWindow, k)
		}
	}
}

// TestRunPathNoRunAfterFailure: after a run has failed no later run starts.
// The second run of a cold 24-block file queues for the eight slots the
// first holds, and those free only once its failure is on record.
func TestRunPathNoRunAfterFailure(t *testing.T) {
	const f = block.FileID(1)
	sizes := map[block.FileID]int64{f: 3 * readWindow * int64(testGeom.Size)}
	for _, entry := range []int{0, 1} {
		src := newBarrierSource(t, sizes, 0)
		src.failIdx = 3
		_, client := startBarrierCluster(t, 2, src)
		if _, err := client.ReadVia(entry, f); err == nil || !strings.Contains(err.Error(), "injected failure at block 3") {
			t.Fatalf("entry %d: error %v, want the injected failure", entry, err)
		}
		_, reads := src.seen()
		for _, idx := range reads {
			if idx >= readWindow {
				t.Fatalf("entry %d: block %d was read after the first run failed (reads %v)", entry, idx, reads)
			}
		}
	}
}

// TestRunPathSingleBlockHomeServes pins the RPC cost of a one-block remote
// hit through an entry that is not the file's home, on a block the home
// holds the master of: one MsgGetRun, which the home answers from its own
// cache. It was two (a directory lookup, then the fetch) until commit
// e3e0d10. The fetch is no planner run, and no node sends anything else.
func TestRunPathSingleBlockHomeServes(t *testing.T) {
	const f = block.FileID(1)
	sizes := map[block.FileID]int64{f: int64(testGeom.Size)}
	nodes, client := startCluster(t, 3, 64, sizes, nil) // home and directory at 1
	// Node 1 reads first, so it holds the master.
	if _, err := client.ReadVia(1, f); err != nil {
		t.Fatal(err)
	}
	data, err := client.ReadVia(2, f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, expect(testGeom, f, sizes[f])) {
		t.Fatal("content mismatch")
	}
	n := nodes[2]
	if gr := rpcCount(n, "get_run"); gr != 1 {
		t.Fatalf("get_run = %d, want 1", gr)
	}
	if s := n.Stats(); s.RemoteHits != 1 || s.RaceMisses != 0 || s.RunsIssued != 0 {
		t.Fatalf("remote hits %d, race misses %d, runs issued %d; want 1, 0, 0", s.RemoteHits, s.RaceMisses, s.RunsIssued)
	}
	for _, node := range nodes {
		for typ, h := range node.Stats().RPCLatency {
			if node != n || typ != "get_run" || h.Count != 1 {
				t.Fatalf("node %d sent %d %s, want the entry's one run and nothing else", node.ID(), h.Count, typ)
			}
		}
	}
}

// TestRunPathStalePlannedHolder: a directory entry that names the home
// itself, for a block the home's cache no longer holds, is stale, and the
// home finds that out on its own: it reads the source and records the
// reader, in the one message. Until commit e3e0d10 it cost five: a lookup,
// a race miss on the home's cache, a drop, a source read and an update.
func TestRunPathStalePlannedHolder(t *testing.T) {
	const f = block.FileID(1)
	id := block.ID{File: f, Idx: 0}
	sizes := map[block.FileID]int64{f: int64(testGeom.Size)}
	nodes, client := startCluster(t, 3, 64, sizes, nil)
	if _, err := client.ReadVia(1, f); err != nil {
		t.Fatal(err)
	}
	nodes[1].store.Remove(id) // the directory still names node 1
	data, err := client.ReadVia(2, f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, expect(testGeom, f, sizes[f])) {
		t.Fatal("content mismatch")
	}
	n := nodes[2]
	if s := n.Stats(); s.RaceMisses != 0 || s.DiskReads != 1 || s.RemoteHits != 0 {
		t.Fatalf("race misses %d, disk reads %d, remote hits %d; want 0, 1, 0", s.RaceMisses, s.DiskReads, s.RemoteHits)
	}
	for typ, h := range n.Stats().RPCLatency {
		if typ != "get_run" || h.Count != 1 {
			t.Fatalf("the entry sent %d %s, want one run and nothing else", h.Count, typ)
		}
	}
	if holder, ok := dirOf(t, nodes, f).lookup(id); !ok || holder != 2 {
		t.Fatalf("directory names %d (present %v) after the home read, want node 2", holder, ok)
	}
}
