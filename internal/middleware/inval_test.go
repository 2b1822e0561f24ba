package middleware

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/block"
)

// TestStalenessBoundUnderFaults is the bus's property test: concurrent
// writers and readers over a seeded lossy fault plan. Three properties must
// hold throughout:
//
//  1. read-your-writes — a writer always reads its own latest write back
//     from its entry node, immediately;
//  2. no torn reads — every read returns either the original synthetic
//     content or exactly one writer's version, never a mix;
//  3. bounded staleness — once writes stop, every node converges to the
//     final version within the repair bound (delivery retries plus one
//     resend from the receiver's mark), with the bus fully drained.
//
// The iteration count shrinks under -short; CI runs the package with -race.
func TestStalenessBoundUnderFaults(t *testing.T) {
	const k = 4
	const files = 4 // one single-block file per writer
	rounds := 12
	if testing.Short() {
		rounds = 3
	}
	sizes := map[block.FileID]int64{}
	for f := 0; f < files; f++ {
		sizes[block.FileID(f)] = 1024
	}
	plan := &FaultPlan{Seed: 99, DelayProb: 0.05, Delay: time.Millisecond, DropProb: 0.05}
	nodes, _ := startCluster(t, k, 256, sizes, func(i int, cfg *Config) {
		cfg.Fault = plan
		cfg.RPCTimeout = 250 * time.Millisecond
		cfg.Retries = 3
	})
	client := dialNodes(t, nodes, ClientConfig{RPCTimeout: 1500 * time.Millisecond, Retries: 4})

	// Prime every file onto several nodes so there are live copies to
	// invalidate.
	for f := 0; f < files; f++ {
		for e := 0; e < k; e++ {
			if _, err := client.ReadVia(e, block.FileID(f)); err != nil {
				t.Fatalf("prime read file %d via %d: %v", f, e, err)
			}
		}
	}

	version := make([]atomic.Int32, files) // latest version written per file
	var writers, readers sync.WaitGroup
	stopReaders := make(chan struct{})

	// Writers: writer w owns file w exclusively and writes versions 1..rounds
	// through entry node w%k, checking read-your-writes after each.
	for w := 0; w < files; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			id := block.ID{File: block.FileID(w), Idx: 0}
			entry := nodes[w%k]
			for v := 1; v <= rounds; v++ {
				data := bytes.Repeat([]byte{byte(v)}, 1024)
				// Announce the version before the write is issued: a reader
				// observing these bytes mid-flight must still see v ≤ vEnd.
				version[w].Store(int32(v))
				if err := entry.WriteBlock(id, data); err != nil {
					t.Errorf("writer %d version %d: %v", w, v, err)
					return
				}
				got, err := entry.GetBlock(id)
				if err != nil {
					t.Errorf("writer %d read-own-write: %v", w, err)
					return
				}
				if !bytes.Equal(got, data) {
					t.Errorf("writer %d did not read its own version %d back", w, v)
					return
				}
			}
		}(w)
	}

	// Readers: any entry node, any file; every observed block must be whole
	// (original content or one uniform version no newer than the last write).
	for r := 0; r < 2*k; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(1000 + r)))
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				f := rng.Intn(files)
				data, err := client.ReadVia(rng.Intn(k), block.FileID(f))
				vEnd := version[f].Load()
				if err != nil {
					continue // transient under the fault plan: the property is about bytes
				}
				if len(data) != 1024 {
					t.Errorf("file %d read returned %d bytes", f, len(data))
					return
				}
				if bytes.Equal(data, SyntheticBlock(block.FileID(f), 0, 1024)) {
					continue // pre-write content: stale but whole
				}
				v := data[0]
				if !bytes.Equal(data, bytes.Repeat([]byte{v}, 1024)) {
					t.Errorf("torn read of file %d: mixed versions in one block", f)
					return
				}
				if int32(v) > vEnd {
					t.Errorf("file %d read version %d, newer than last write %d", f, v, vEnd)
					return
				}
			}
		}(r)
	}

	writers.Wait() // writers done — only now is "final version" defined
	close(stopReaders)
	readers.Wait()

	// Bounded staleness: the bus drains (all live peers ack every record)
	// and every node then serves the final version of every file.
	deadline := time.Now().Add(15 * time.Second)
	for _, n := range nodes {
		if !n.FlushInval(time.Until(deadline)) {
			t.Fatal("invalidation bus never drained after writes stopped")
		}
	}
	for f := 0; f < files; f++ {
		want := bytes.Repeat([]byte{byte(rounds)}, 1024)
		id := block.ID{File: block.FileID(f), Idx: 0}
		for i, n := range nodes {
			for {
				got, err := n.GetBlock(id)
				if err == nil && bytes.Equal(got, want) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("node %d stuck stale on file %d past the staleness bound (err=%v)", i, f, err)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}

// invalWindow hands node n the MsgInvalidateN window [first, last] of
// origin's records and returns the applied mark its ack names.
func invalWindow(t *testing.T, n *Node, origin int, first, last uint64, truncated bool, ids ...block.ID) uint64 {
	t.Helper()
	f := &Frame{Type: MsgInvalidateN, Sender: int32(origin), Aux: int64(last),
		Payload: appendInvalPayload(nil, first, ids)}
	if truncated {
		f.Flags = flagTruncated
	}
	r := n.handleInvalidateN(f)
	defer releaseFrame(r)
	if err := r.Err(); err != nil {
		t.Fatalf("window [%d,%d]: %v", first, last, err)
	}
	return uint64(r.Aux)
}

// cachedPair starts a two-node cluster whose node 0 caches blocks 0 and 1
// of one file, and returns node 0 and the two block IDs.
func cachedPair(t *testing.T) (*Node, block.ID, block.ID) {
	t.Helper()
	f := homedAt(2, 0)
	nodes, _ := startCluster(t, 2, 64, map[block.FileID]int64{f: 2048}, nil)
	a, b := block.ID{File: f, Idx: 0}, block.ID{File: f, Idx: 1}
	for _, id := range []block.ID{a, b} {
		if _, err := nodes[0].GetBlock(id); err != nil {
			t.Fatal(err)
		}
	}
	if !nodes[0].store.Contains(a) || !nodes[0].store.Contains(b) {
		t.Fatal("node 0 did not cache both blocks")
	}
	return nodes[0], a, b
}

// TestInvalTruncatedWindowFlushes: a truncated window empties the cache,
// then applies, and counts one repair.
func TestInvalTruncatedWindowFlushes(t *testing.T) {
	n, a, b := cachedPair(t)
	if m := invalWindow(t, n, 1, 10, 12, false, a); m != 12 {
		t.Fatalf("first window acked %d, want 12", m)
	}
	if !n.store.Contains(b) {
		t.Fatal("an untruncated window dropped a block it did not name")
	}
	if m := invalWindow(t, n, 1, 500, 501, true, a); m != 501 {
		t.Fatalf("truncated window acked %d, want 501", m)
	}
	if n.store.Len() != 0 {
		t.Fatalf("truncated window left %d blocks cached", n.store.Len())
	}
	if got := n.Stats().InvalCatchups; got != 1 {
		t.Fatalf("InvalCatchups = %d, want 1", got)
	}
}

// TestInvalGapRefusedThenResent: an unflagged window past the mark is
// refused with the mark, and the resend from there is applied.
func TestInvalGapRefusedThenResent(t *testing.T) {
	n, a, b := cachedPair(t)
	invalWindow(t, n, 1, 10, 12, false, a)
	if m := invalWindow(t, n, 1, 20, 21, false, b); m != 12 {
		t.Fatalf("gap window acked %d, want the mark 12", m)
	}
	if !n.store.Contains(b) {
		t.Fatal("a refused window was applied")
	}
	if got := n.Stats().InvalCatchups; got != 1 {
		t.Fatalf("InvalCatchups = %d, want 1", got)
	}
	if m := invalWindow(t, n, 1, 13, 21, false, b); m != 21 {
		t.Fatalf("resend from the mark acked %d, want 21", m)
	}
	if n.store.Contains(b) {
		t.Fatal("the resend from the mark was not applied")
	}
}

// TestInvalFirstWindowAdopted: a receiver that has heard nothing from an
// origin applies whatever window comes first, without a flush.
func TestInvalFirstWindowAdopted(t *testing.T) {
	n, a, b := cachedPair(t)
	if m := invalWindow(t, n, 1, 1_000_000, 1_000_003, false, a); m != 1_000_003 {
		t.Fatalf("first window acked %d, want 1000003", m)
	}
	if n.store.Contains(a) || !n.store.Contains(b) {
		t.Fatal("the adopted window did not drop exactly the block it named")
	}
	if got := n.Stats().InvalCatchups; got != 0 {
		t.Fatalf("InvalCatchups = %d, want 0", got)
	}
}

// TestInvalDuplicateSkipped: a window at or below the mark changes nothing,
// even a truncated one, and acks the mark.
func TestInvalDuplicateSkipped(t *testing.T) {
	n, a, b := cachedPair(t)
	invalWindow(t, n, 1, 10, 12, false, a)
	if _, err := n.GetBlock(a); err != nil { // re-fetched after the invalidation
		t.Fatal(err)
	}
	for _, trunc := range []bool{false, true} {
		if m := invalWindow(t, n, 1, 11, 12, trunc, a, b); m != 12 {
			t.Fatalf("duplicate (truncated %v) acked %d, want 12", trunc, m)
		}
	}
	if !n.store.Contains(a) || !n.store.Contains(b) {
		t.Fatal("a duplicate window dropped cached blocks")
	}
}

// bareBus is a bus of node n with one sender toward peer and no sender
// loop, so its marks move only when the test moves them.
func bareBus(n *Node, base uint64, peer int) (*invalBus, *invalSender) {
	b := &invalBus{n: n, base: base, head: base, stop: make(chan struct{})}
	s := &invalSender{peer: peer, notify: make(chan struct{}, 1)}
	s.acked.Store(base)
	b.senders = []*invalSender{s}
	return b, s
}

// TestInvalCollectTruncation: collect sends from the mark, and marks the
// window truncated for a mark of an earlier bus and for a mark below an
// overflowed history, but not for mark 0 on an intact one.
func TestInvalCollectTruncation(t *testing.T) {
	const base = 1_000
	b, _ := bareBus(nil, base, 1)
	for i := 0; i < 3; i++ {
		b.publish(block.ID{File: 1, Idx: int32(i)})
	}
	seen := map[block.ID]struct{}{}
	for _, c := range []struct {
		acked     uint64
		first     uint64
		truncated bool
	}{
		{base, base + 1, false},     // a fresh sender: the whole history
		{base + 1, base + 2, false}, // continues the mark
		{0, base + 1, false},        // heard nothing, history intact
		{7, base + 1, true},         // an earlier bus's mark
	} {
		first, last, _, trunc, batch := b.collect(c.acked, nil, seen)
		if first != c.first || last != base+3 || trunc != c.truncated || len(batch) != int(last-first+1) {
			t.Fatalf("collect(%d) = [%d,%d] truncated %v, %d ids; want [%d,%d] truncated %v",
				c.acked, first, last, trunc, len(batch), c.first, base+3, c.truncated)
		}
	}
	if _, _, _, _, batch := b.collect(base+3, nil, seen); len(batch) != 0 {
		t.Fatal("collect past the head returned records")
	}

	for i := 0; i < invalHistory; i++ { // overflow: the first 3 fall off
		b.publish(block.ID{File: 2, Idx: int32(i % 8)})
	}
	floor := uint64(base + 4)
	for _, acked := range []uint64{0, base, base + 2} {
		first, _, _, trunc, _ := b.collect(acked, nil, seen)
		if first != floor || !trunc {
			t.Fatalf("collect(%d) on an overflowed history = first %d truncated %v; want %d, true", acked, first, trunc, floor)
		}
	}
	if first, _, _, trunc, _ := b.collect(base+3, nil, seen); first != floor || trunc {
		t.Fatalf("collect at the floor = first %d truncated %v; want %d, false", first, trunc, floor)
	}
}

// TestInvalDepthAfterLowAck: a mark below the bus's base counts as none of
// its records acknowledged, not as a backlog of the mark's distance.
func TestInvalDepthAfterLowAck(t *testing.T) {
	nodes, _ := startCluster(t, 2, 64, map[block.FileID]int64{0: 1024}, nil)
	base := uint64(time.Now().UnixNano())
	b, s := bareBus(nodes[0], base, 1)
	if d := b.depth(); d != 0 {
		t.Fatalf("empty bus depth %d", d)
	}
	s.acked.Store(7) // an earlier bus's mark, before any record of this one
	if d := b.depth(); d != 0 {
		t.Fatalf("empty bus depth %d after a low ack", d)
	}
	for i := 0; i < 3; i++ {
		b.publish(block.ID{File: 0, Idx: 0})
	}
	if d := b.depth(); d != 3 {
		t.Fatalf("depth %d after a low ack, want 3", d)
	}
	s.acked.Store(base + 2)
	if d := b.depth(); d != 1 {
		t.Fatalf("depth %d, want 1", d)
	}
	s.acked.Store(base + 3)
	if d := b.depth(); d != 0 {
		t.Fatalf("depth %d once acked to the head, want 0", d)
	}
}
