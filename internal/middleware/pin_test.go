package middleware

import (
	"bytes"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/core"
)

// TestGetRefPinsAcrossRemove is the refcount contract at its sharpest: a
// pinned reference keeps its bytes bit-identical through Remove and the
// buffer's slot being refilled by new content.
func TestGetRefPinsAcrossRemove(t *testing.T) {
	s := NewStore(8, core.PolicyMaster)
	want := SyntheticBlock(7, 3, 4096)
	s.Insert(sid(7, 3), append([]byte(nil), want...), true)
	pb, ok := s.GetRef(sid(7, 3))
	if !ok {
		t.Fatal("GetRef missed")
	}
	s.Remove(sid(7, 3))
	s.Insert(sid(7, 3), SyntheticBlock(9, 9, 4096), true)
	if !bytes.Equal(pb.data, want) {
		t.Fatal("pinned bytes changed after Remove + reinsert")
	}
	pb.release()
}

// TestGetBlockMutationCanary: the public GetBlock hands back the caller's own
// copy — mutating it must never reach the cache, and a reader pinned on the
// same block must never observe the mutation. This is the regression test
// for the old dst==nil aliasing hazard, where GetBlock returned a slice
// aliasing the store's buffer.
func TestGetBlockMutationCanary(t *testing.T) {
	geom := block.Geometry{Size: 512, ExtentBlocks: 8}
	sizes := map[block.FileID]int64{0: 4 * 512}
	nodes, _ := startCluster(t, 1, 16, sizes, func(i int, cfg *Config) {
		cfg.Geometry = geom
	})
	n := nodes[0]
	id := block.ID{File: 0, Idx: 0}
	want, err := n.GetBlock(id)
	if err != nil {
		t.Fatal(err)
	}
	got, err := n.GetBlock(id)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		got[i] ^= 0xFF // scribble over the returned slice
	}
	again, err := n.GetBlock(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Fatal("mutating GetBlock's return value corrupted the cache")
	}
}

// TestPinnedReadRaceCanary drives concurrent pinned reads against an
// eviction storm on the same tiny store: with the refcount contract intact
// the race detector sees no unsynchronized recycle and every pinned buffer
// stays bit-stable while held. (Run under -race; without the pin this is the
// use-after-recycle the zero-copy refactor exists to prevent.)
func TestPinnedReadRaceCanary(t *testing.T) {
	s := NewStore(4, core.PolicyBasic) // 4 slots, 32 blocks: constant churn
	const blocks = 32
	mk := func(i int) []byte { return SyntheticBlock(block.FileID(i), 0, 2048) }
	var writer, readers sync.WaitGroup
	stop := make(chan struct{})
	// Writer: permanent insert/evict churn.
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if ev := s.Insert(sid(i%blocks, 0), mk(i%blocks), i%2 == 0); ev != nil {
				ev.Release()
			}
		}
	}()
	// Readers: pin whatever is cached, verify it stays identical while held.
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(seed int) {
			defer readers.Done()
			for i := 0; i < 3000; i++ {
				id := sid((seed+i)%blocks, 0)
				pb, ok := s.GetRef(id)
				if !ok {
					continue
				}
				snapshot := append([]byte(nil), pb.data...)
				runtime.Gosched() // let the churn try to recycle under us
				if !bytes.Equal(snapshot, pb.data) {
					t.Errorf("pinned payload of %v changed while held", id)
					pb.release()
					return
				}
				if !bytes.Equal(pb.data, mk((seed+i)%blocks)) {
					t.Errorf("pinned payload of %v has wrong content", id)
					pb.release()
					return
				}
				pb.release()
			}
		}(r * 7)
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}

// TestPinnedReplyRace drives MsgReadFile and MsgReadRange replies, whose
// segments alias pinned store blocks until the socket write, through real
// conns while the same blocks are evicted, rewritten and invalidated, and
// while other conns close with replies still being written. The files are
// homed on node 1 and read through node 0, so every block node 0 serves came
// from a peer fetch into a pooled buffer, which eviction hands back for
// reuse. Every block of every reply must be one whole version of that block
// (its original bytes or one write's), never bytes recycled to another
// block, and once the cluster is idle every stored block must be held by the
// store alone: a reply that kept a pin would show. Run under -race: over
// plain conns the replies go out by writev, and over node 0's fault-wrapped
// conns (a plan that injects nothing) they are copied into the write
// buffer, where the race detector sees a read of a recycled buffer.
func TestPinnedReplyRace(t *testing.T) {
	t.Run("writev", func(t *testing.T) { testPinnedReplyRace(t, nil) })
	t.Run("contiguous", func(t *testing.T) { testPinnedReplyRace(t, &FaultPlan{Seed: 1}) })
}

func testPinnedReplyRace(t *testing.T, fault *FaultPlan) {
	const files, fileBlocks, bs = 6, 5, 1024
	const size = fileBlocks*bs - 100 // a short last block
	sizes := map[block.FileID]int64{}
	var hot []block.FileID
	for f := block.FileID(0); len(hot) < files; f++ {
		if RingHome(f, 2) == 1 {
			hot = append(hot, f)
			sizes[f] = size
		}
	}
	nodes, client := startCluster(t, 2, 8, sizes, func(i int, cfg *Config) { // 8 blocks a node, 30 in play
		if i == 0 {
			cfg.Fault = fault
		}
	})
	// A write is the original XOR one byte, so a block whose bytes all differ
	// from the original by the same byte is one whole version.
	whole := func(f block.FileID, i int32, lo int, got []byte) bool {
		want := SyntheticBlock(f, i, blockLen(testGeom, size, i))[lo:]
		if len(got) == 0 || len(got) > len(want) {
			return false
		}
		for j := range got {
			if got[j]^want[j] != got[0]^want[0] {
				return false
			}
		}
		return true
	}
	// checkRange reports the first block of data, the bytes at off of f,
	// that is not one whole version.
	checkRange := func(f block.FileID, off int64, data []byte) (int32, bool) {
		for len(data) > 0 {
			i := int32(off / bs)
			lo := int(off % bs)
			n := min(bs-lo, len(data))
			if !whole(f, i, lo, data[:n]) {
				return i, false
			}
			data, off = data[n:], off+int64(n)
		}
		return 0, true
	}

	stop := make(chan struct{})
	var churn, readers sync.WaitGroup
	// Writes: each rewrites one block as the original XOR a nonzero byte,
	// which invalidates every cached copy of it.
	churn.Add(1)
	go func() {
		defer churn.Done()
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			f, i := hot[k%files], int32(k%fileBlocks)
			data := SyntheticBlock(f, i, blockLen(testGeom, size, i))
			for j := range data {
				data[j] ^= byte(k%255) + 1
			}
			if err := client.Write(f, i, data); err != nil {
				t.Errorf("write %d:%d: %v", f, i, err)
				return
			}
		}
	}()
	// Closes: pipeline whole-file requests on a raw conn, read a little of
	// the first reply and hang up, so the node's writes fail part way.
	churn.Add(1)
	go func() {
		defer churn.Done()
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			nc, err := net.Dial("tcp", nodes[0].Addr())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			for r := 0; r < 8; r++ {
				req := &Frame{Type: MsgReadFile, File: hot[(k+r)%files], Req: uint32(r + 1), Sender: -1}
				if err := WriteFrame(nc, req); err != nil {
					break
				}
			}
			nc.Read(make([]byte, 100)) //nolint:errcheck // any outcome will do: the point is the hang-up
			nc.Close()
		}
	}()
	// Readers: whole files (MsgReadFile) and unaligned ranges (MsgReadRange)
	// through node 0; the reads of the other readers are the eviction storm.
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for k := 0; k < 150; k++ {
				f := hot[(r+k)%files]
				if r%2 == 0 {
					data, err := client.ReadVia(0, f)
					if err != nil {
						t.Errorf("read %d: %v", f, err)
						return
					}
					if len(data) != size {
						t.Errorf("read %d: %d bytes, want %d", f, len(data), size)
						return
					}
					if i, ok := checkRange(f, 0, data); !ok {
						t.Errorf("read %d: block %d is not one whole version", f, i)
						return
					}
					continue
				}
				fr, err := client.OpenVia(0, f)
				if err != nil {
					t.Errorf("open %d: %v", f, err)
					return
				}
				off := int64(k*337) % (size - 1)
				buf := make([]byte, min(int64(1+k*97%(3*bs)), size-off))
				if n, err := fr.ReadAt(buf, off); n != len(buf) {
					t.Errorf("range %d+%d of %d: %d bytes: %v", off, len(buf), f, n, err)
					return
				}
				if i, ok := checkRange(f, off, buf); !ok {
					t.Errorf("range %d+%d of %d: block %d is not one whole version", off, len(buf), f, i)
					return
				}
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	churn.Wait()

	// Idle: every reply has been written or has failed, so the store's own
	// reference must be the only one left on each cached block. Forwards of
	// evicted masters may still be settling, so poll.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var pinned []block.ID
		for _, n := range nodes {
			n.store.mu.Lock()
			for id, pb := range n.store.data {
				if pb.refs.Load() != 1 {
					pinned = append(pinned, id)
				}
			}
			n.store.mu.Unlock()
		}
		if len(pinned) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("blocks still pinned with the cluster idle: %v", pinned)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
