package middleware

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/block"
)

// TestWriteInvalidateReadBack checks the three things a reader may rely on
// after Client.Write returns (DESIGN.md, "Write path & invalidation bus"):
// the writing client reads its write at once; until the bus has drained,
// any other entry returns the old or the new block, whole; once every node
// has flushed, every entry returns the new block.
func TestWriteInvalidateReadBack(t *testing.T) {
	const bs = 1024
	sizes := map[block.FileID]int64{0: 3 * bs}
	nodes, client := startCluster(t, 3, 64, sizes, nil)

	// Warm every node's cache with the file.
	for i := range nodes {
		if _, err := client.ReadVia(i, 0); err != nil {
			t.Fatal(err)
		}
	}

	// Overwrite the middle block.
	newData := bytes.Repeat([]byte{0xAB}, bs)
	if err := client.Write(0, 1, newData); err != nil {
		t.Fatal(err)
	}
	old := expect(testGeom, 0, sizes[0])
	want := append(append(append([]byte{}, old[:bs]...), newData...), old[2*bs:]...)

	// 1. Read-your-writes: the client re-enters at the node that took the
	// write, which installed the new master before acknowledging.
	got, err := client.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the writing client did not read its own write")
	}

	// 2. Bounded staleness: the invalidation may still be in flight, so an
	// entry may serve its old copy, but never anything else.
	for i := range nodes {
		got, err := client.ReadVia(i, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) && !bytes.Equal(got, old) {
			t.Fatalf("node %d returned neither the old nor the new content before the flush", i)
		}
	}

	// 3. Convergence: once every bus has drained, every entry serves the write.
	for i, n := range nodes {
		if !n.FlushInval(5 * time.Second) {
			t.Fatalf("node %d: invalidation bus did not drain", i)
		}
	}
	var inval uint64
	for i, n := range nodes {
		got, err := client.ReadVia(i, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("node %d returned stale content after the flush", i)
		}
		inval += n.Stats().Invalidations
	}
	if inval == 0 {
		t.Fatal("no invalidations recorded")
	}
}

func TestWritePersistsAtHome(t *testing.T) {
	sizes := map[block.FileID]int64{1: 2048}
	nodes, client := startCluster(t, 2, 64, sizes, nil)
	newData := bytes.Repeat([]byte{0x5C}, 1024)
	if err := client.Write(1, 0, newData); err != nil {
		t.Fatal(err)
	}
	// The home node's backing store must hold the new bytes (write-through).
	home := nodes[RingHome(1, len(nodes))]
	got, err := home.cfg.Source.ReadBlock(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, newData) {
		t.Fatal("write did not reach the home backing store")
	}
}

// heldWrites is a backing store whose block writes wait for release and then
// fail: a home that has not taken, and will not take, a write-through.
type heldWrites struct {
	BlockSource
	entered, release chan struct{}
}

func (s *heldWrites) WriteBlock(block.FileID, int32, []byte) error {
	close(s.entered)
	<-s.release
	return errors.New("write refused")
}

// TestWriteInstallsAfterWriteThrough: the writer caches the new master only
// once the home has taken the write-through, so no local read on the writer
// returns bytes that are not durable. While the home holds the write the
// writer's cache has no copy, and a write the home refuses fails and leaves
// none.
func TestWriteInstallsAfterWriteThrough(t *testing.T) {
	f := homedAt(2, 1)
	sizes := map[block.FileID]int64{f: int64(testGeom.Size)}
	src := &heldWrites{BlockSource: NewMemSource(testGeom, sizes), entered: make(chan struct{}), release: make(chan struct{})}
	nodes, _ := startCluster(t, 2, 64, sizes, func(i int, cfg *Config) {
		if i == 1 {
			cfg.Source = src
		}
	})
	id := block.ID{File: f, Idx: 0}
	done := make(chan error, 1)
	go func() { done <- nodes[0].WriteBlock(id, bytes.Repeat([]byte{0x7E}, testGeom.Size)) }()
	<-src.entered
	early := nodes[0].store.Contains(id)
	close(src.release)
	if early {
		t.Fatal("the writer cached the new bytes while the home held the write-through")
	}
	if err := <-done; err == nil {
		t.Fatal("a write the home refused succeeded")
	}
	if nodes[0].store.Contains(id) {
		t.Fatal("a refused write left the new bytes in the writer's cache")
	}
}

func TestWriteRejectsWrongLength(t *testing.T) {
	sizes := map[block.FileID]int64{0: 2048}
	_, client := startCluster(t, 2, 64, sizes, nil)
	if err := client.Write(0, 0, []byte("short")); err == nil {
		t.Fatal("short write accepted")
	}
	if err := client.Write(0, 9, bytes.Repeat([]byte{1}, 1024)); err == nil {
		t.Fatal("out-of-range block accepted")
	}
}

func TestWriteThenWriteAgain(t *testing.T) {
	sizes := map[block.FileID]int64{0: 1024}
	_, client := startCluster(t, 3, 64, sizes, nil)
	v1 := bytes.Repeat([]byte{1}, 1024)
	v2 := bytes.Repeat([]byte{2}, 1024)
	if err := client.Write(0, 0, v1); err != nil {
		t.Fatal(err)
	}
	if err := client.Write(0, 0, v2); err != nil {
		t.Fatal(err)
	}
	got, err := client.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v2) {
		t.Fatal("second write lost")
	}
}

// TestSingleNodeWrite: a one-node cluster has no invalidation bus and no
// peer to tell. Its write still invalidates the local copy, writes through
// to the source and installs the new master, and there is nothing to flush.
func TestSingleNodeWrite(t *testing.T) {
	sizes := map[block.FileID]int64{0: 2048}
	nodes, client := startCluster(t, 1, 64, sizes, nil)
	n := nodes[0]
	if n.busRef() != nil {
		t.Fatal("one-node cluster started an invalidation bus")
	}
	if _, err := client.Read(0); err != nil { // cache the old bytes first
		t.Fatal(err)
	}
	newData := bytes.Repeat([]byte{0x3E}, 1024)
	if err := client.Write(0, 1, newData); err != nil {
		t.Fatal(err)
	}
	got, err := client.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if want := append(SyntheticBlock(0, 0, 1024), newData...); !bytes.Equal(got, want) {
		t.Fatal("read after write did not return the new bytes")
	}
	if onDisk, err := n.cfg.Source.ReadBlock(0, 1); err != nil || !bytes.Equal(onDisk, newData) {
		t.Fatalf("write did not reach the source (err %v)", err)
	}
	if st := n.Stats(); st.Writes != 1 || st.Invalidations != 1 || st.InvalBacklog != 0 {
		t.Fatalf("writes=%d invalidations=%d backlog=%d, want 1, 1, 0", st.Writes, st.Invalidations, st.InvalBacklog)
	}
	if !n.FlushInval(0) {
		t.Fatal("FlushInval reported an unfinished flush on a node without a bus")
	}
}
