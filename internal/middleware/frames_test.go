package middleware

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/block"
	"repro/internal/core"
)

// ownFrameErr says why bufs do not each start an arena frame of their own,
// or returns nil.
func ownFrameErr(bufs []*payloadBuf) error {
	seen := make(map[*byte]bool, len(bufs))
	for i, pb := range bufs {
		if !pb.frame || len(pb.data) == 0 || cap(pb.data) != frameSize {
			return fmt.Errorf("buffer %d: %d bytes in a %d-byte buffer (frame %v), want an arena frame", i, len(pb.data), cap(pb.data), pb.frame)
		}
		start := &(*pb.back)[0]
		if &pb.data[0] != start || seen[start] {
			return fmt.Errorf("buffer %d does not start a frame of its own", i)
		}
		seen[start] = true
	}
	return nil
}

// TestFrameArena: frames are page-aligned, disjoint and frameSize long
// across a chunk boundary; the last frame put back is the next handed out;
// and eight goroutines getting and putting frames never share one, and
// leave none in use.
func TestFrameArena(t *testing.T) {
	var a frameArena
	held := make([]*[]byte, chunkFrames+1) // one past the first chunk
	starts := make(map[*byte]bool)
	for i := range held {
		p := a.get()
		held[i] = p
		if len(*p) != frameSize || cap(*p) != frameSize {
			t.Fatalf("frame %d is %d bytes, capacity %d, want %d", i, len(*p), cap(*p), frameSize)
		}
		if addr := uintptr(unsafe.Pointer(&(*p)[0])); addr%4096 != 0 {
			t.Fatalf("frame %d at %#x is not page-aligned", i, addr)
		}
		if starts[&(*p)[0]] {
			t.Fatalf("frame %d handed out twice", i)
		}
		starts[&(*p)[0]] = true
	}
	if a.used() != len(held) {
		t.Fatalf("%d frames in use, want %d", a.used(), len(held))
	}
	a.put(held[3])
	a.put(held[7])
	if p := a.get(); p != held[7] {
		t.Fatal("the last frame put back is not the next handed out")
	}
	if p := a.get(); p != held[3] {
		t.Fatal("the frame put back before it is not handed out second")
	}
	for _, p := range held {
		a.put(p)
	}
	if a.used() != 0 {
		t.Fatalf("%d frames in use after every put", a.used())
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g byte) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				var mine [3]*[]byte
				for k := range mine {
					mine[k] = a.get()
					for j := range *mine[k] {
						(*mine[k])[j] = g
					}
				}
				for k, p := range mine {
					if !bytes.Equal(*p, bytes.Repeat([]byte{g}, frameSize)) {
						t.Errorf("goroutine %d: frame %d written by another holder", g, k)
						return
					}
					a.put(p)
				}
			}
		}(byte(g))
	}
	wg.Wait()
	if a.used() != 0 {
		t.Fatalf("%d frames in use after the goroutines put theirs back", a.used())
	}
}

// TestPayloadBacking: a payload that fits a frame lands in one; a larger
// one (a non-default geometry) in a size class; a copy holds the bytes.
func TestPayloadBacking(t *testing.T) {
	data := SyntheticBlock(3, 4, 5000)
	pb := copyPayloadBuf(data)
	if err := ownFrameErr([]*payloadBuf{pb}); err != nil || !bytes.Equal(pb.data, data) {
		t.Fatalf("copy of %d bytes: %v, equal %v", len(data), err, bytes.Equal(pb.data, data))
	}
	pb.release()
	big := newPooledPayloadBuf(frameSize + 1)
	if big.frame || len(big.data) != frameSize+1 || cap(big.data) != 16<<10 {
		t.Fatalf("%d-byte payload: frame %v, capacity %d, want the 16 KB class", len(big.data), big.frame, cap(big.data))
	}
	big.release()
}

// TestStoreCloseReleases: Close gives back every cached block, and a closed
// store releases what it is handed instead of caching it.
func TestStoreCloseReleases(t *testing.T) {
	s := NewStore(8, core.PolicyMaster)
	pins := make([]*payloadBuf, 4)
	for i := range pins {
		pins[i] = copyPayloadBuf(SyntheticBlock(1, int32(i), 1024))
		s.InsertBuf(block.ID{File: 1, Idx: int32(i)}, pins[i].retain(), i%2 == 0)
	}
	s.Close()
	if s.Len() != 0 || s.Masters() != 0 {
		t.Fatalf("closed store holds %d blocks (%d masters)", s.Len(), s.Masters())
	}
	for i, pb := range pins {
		if n := pb.refs.Load(); n != 1 {
			t.Fatalf("block %d: %d references after Close, want the test's one", i, n)
		}
	}
	late := pins[0].retain()
	if ev := s.InsertBuf(block.ID{File: 2, Idx: 0}, late, true); ev != nil || s.Len() != 0 {
		t.Fatalf("closed store cached an insert (eviction %v, %d blocks)", ev, s.Len())
	}
	if ok, _ := s.AcceptForward(block.ID{File: 2, Idx: 1}, pins[1].data, 1); ok || s.Len() != 0 {
		t.Fatalf("closed store accepted a forward (%d blocks)", s.Len())
	}
	if n := pins[0].refs.Load(); n != 1 {
		t.Fatalf("closed store kept the inserted reference (%d references)", n)
	}
	releasePins(pins)
}
