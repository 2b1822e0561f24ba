package middleware

import (
	"bytes"
	"io"
	"sync"
	"testing"
	"testing/iotest"

	"repro/internal/block"
)

// readRangeRPCs is how many ranged-read round trips the client has made.
func readRangeRPCs(c *Client) uint64 {
	return c.RPCLatency()[MsgReadRange.metricName()].Count
}

// TestFileReaderHeadContract runs the stdlib reader contract over
// head-opened readers for sizes around the head boundary, and pins what
// each open holds and what streaming the file costs in round trips.
func TestFileReaderHeadContract(t *testing.T) {
	sizes := map[block.FileID]int64{
		0: 0,
		1: 1,
		2: openHeadLen - 1,
		3: openHeadLen,
		4: openHeadLen + 1,
		5: openHeadLen + 32<<10 + 1, // one full copy chunk and a byte past the head
	}
	_, client := startCluster(t, 2, 256, sizes, nil)
	for f := block.FileID(0); int(f) < len(sizes); f++ {
		size := sizes[f]
		want := expect(testGeom, f, size)
		fr, err := client.OpenHeadVia(-1, f)
		if err != nil {
			t.Fatalf("open %d: %v", f, err)
		}
		if fr.Size() != size {
			t.Fatalf("file %d: Size = %d, want %d", f, fr.Size(), size)
		}
		wantHead := min(size, openHeadLen)
		if got := int64(len(headBytes(fr))); got != wantHead {
			t.Fatalf("file %d: head = %d bytes, want %d", f, got, wantHead)
		}

		// Streaming through a 32 KB copy buffer, as io.Copy does, pays one
		// RPC per chunk past the head and none inside it.
		before := readRangeRPCs(client)
		var got bytes.Buffer
		if _, err := io.CopyBuffer(struct{ io.Writer }{&got}, fr, make([]byte, 32<<10)); err != nil {
			t.Fatalf("file %d: stream: %v", f, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("file %d: streamed %d bytes, content mismatch", f, got.Len())
		}
		wantRPCs := uint64((size - wantHead + 32<<10 - 1) / (32 << 10))
		if rpcs := readRangeRPCs(client) - before; rpcs != wantRPCs {
			t.Fatalf("file %d: streaming cost %d RPCs after the open, want %d", f, rpcs, wantRPCs)
		}
		if _, err := fr.Seek(0, io.SeekStart); err != nil {
			t.Fatal(err)
		}

		if err := iotest.TestReader(fr, want); err != nil {
			t.Fatalf("file %d (%d bytes): %v", f, size, err)
		}
		if err := fr.Close(); err != nil {
			t.Fatal(err)
		}
		// A closed reader has given its head back and reads by RPC.
		if headBytes(fr) != nil {
			t.Fatalf("file %d: head kept after Close", f)
		}
		if size > 0 {
			b := make([]byte, 1)
			if n, err := fr.ReadAt(b, 0); n != 1 || err != nil || b[0] != want[0] {
				t.Fatalf("file %d: ReadAt after Close: n=%d err=%v", f, n, err)
			}
		}
		if err := fr.Close(); err != nil { // a second Close is a no-op
			t.Fatal(err)
		}
	}
}

func headBytes(fr *FileReader) []byte {
	if fr.head == nil {
		return nil
	}
	return fr.head.data
}

// TestFileReaderHeadBoundary reads across the end of the head: the bytes
// before it come from the buffer, the bytes after it from one ranged RPC,
// and ReadAt leaves the Seek+Read position where it was.
func TestFileReaderHeadBoundary(t *testing.T) {
	const size = openHeadLen + 5000
	sizes := map[block.FileID]int64{0: size}
	_, client := startCluster(t, 2, 256, sizes, nil)
	want := expect(testGeom, 0, size)
	fr, err := client.OpenHeadVia(-1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()

	before := readRangeRPCs(client)
	buf := make([]byte, 3000)
	const off = openHeadLen - 1000
	if n, err := fr.ReadAt(buf, off); n != len(buf) || err != nil {
		t.Fatalf("straddling ReadAt: n=%d err=%v", n, err)
	}
	if !bytes.Equal(buf, want[off:off+3000]) {
		t.Fatal("straddling ReadAt: content mismatch")
	}
	if got := readRangeRPCs(client) - before; got != 1 {
		t.Fatalf("straddling ReadAt cost %d RPCs, want 1 (the part past the head)", got)
	}

	// Seek+Read interleaved with ReadAt: ReadAt must not move the position.
	if _, err := fr.Seek(openHeadLen-10, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	small := make([]byte, 20)
	if n, err := io.ReadFull(fr, small); n != 20 || err != nil {
		t.Fatalf("Read across the head: n=%d err=%v", n, err)
	}
	if !bytes.Equal(small, want[openHeadLen-10:openHeadLen+10]) {
		t.Fatal("Read across the head: content mismatch")
	}
	if n, err := fr.ReadAt(buf[:100], 0); n != 100 || err != nil || !bytes.Equal(buf[:100], want[:100]) {
		t.Fatalf("ReadAt inside the head: n=%d err=%v", n, err)
	}
	if pos, _ := fr.Seek(0, io.SeekCurrent); pos != openHeadLen+10 {
		t.Fatalf("position after ReadAt = %d, want %d", pos, openHeadLen+10)
	}
	rest, err := io.ReadAll(fr)
	if err != nil || !bytes.Equal(rest, want[openHeadLen+10:]) {
		t.Fatalf("Read to EOF: %d bytes, err %v", len(rest), err)
	}
	if pos, err := fr.Seek(-int64(size), io.SeekEnd); pos != 0 || err != nil {
		t.Fatalf("SeekEnd to start: %d, %v", pos, err)
	}
	if n, err := fr.Read(small); n != 20 || err != nil || !bytes.Equal(small, want[:20]) {
		t.Fatalf("Read after rewind: n=%d err=%v", n, err)
	}
}

// TestFileReaderHeadParallelReadAt shares one head-opened reader between
// goroutines reading inside, across and past the head; under -race this
// pins that the head is never written after the open.
func TestFileReaderHeadParallelReadAt(t *testing.T) {
	const size = openHeadLen + 8000
	sizes := map[block.FileID]int64{0: size}
	_, client := startCluster(t, 2, 256, sizes, nil)
	want := expect(testGeom, 0, size)
	fr, err := client.OpenHeadVia(-1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 3000)
			for i := 0; i < 50; i++ {
				off := int64((g*7919 + i*2503) % (size - len(buf)))
				if i%5 == 0 {
					off = openHeadLen - 1500 // always one straddler in the mix
				}
				n, err := fr.ReadAt(buf, off)
				if n != len(buf) || err != nil || !bytes.Equal(buf, want[off:off+int64(n)]) {
					errs <- "parallel ReadAt returned wrong bytes or an error"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestOpenHeadUnknownFile pins that the head-carrying open reports a
// missing file the same way the probe does: from the open, as not-found.
func TestOpenHeadUnknownFile(t *testing.T) {
	sizes := map[block.FileID]int64{0: 1024}
	_, client := startCluster(t, 2, 64, sizes, nil)
	fr, err := client.OpenHeadVia(0, 99)
	if err == nil || fr != nil {
		t.Fatal("unknown file opened")
	}
	if !IsNotFound(err) {
		t.Fatalf("open of unknown file not classified not-found: %v", err)
	}
}

// TestOpenHeadFailsOver pins the entry node to one that is down: the open
// must fail over to a live node and still bring back size and head, and so
// must the reads past the head that follow.
func TestOpenHeadFailsOver(t *testing.T) {
	const size = openHeadLen + 2000
	// The file homes at node 0; node 1 is only an entry point.
	f := homedAt(3, 0)
	sizes := map[block.FileID]int64{f: size}
	nodes, client := startCluster(t, 3, 256, sizes, nil)
	want := expect(testGeom, f, size)
	nodes[1].Close()

	fr, err := client.OpenHeadVia(1, f)
	if err != nil {
		t.Fatalf("open through a dead entry: %v", err)
	}
	defer fr.Close()
	if client.FaultStats().Failovers == 0 {
		t.Fatal("open through a dead entry recorded no failover")
	}
	if fr.Size() != size || !bytes.Equal(headBytes(fr), want[:openHeadLen]) {
		t.Fatalf("after failover: size %d, head %d bytes", fr.Size(), len(headBytes(fr)))
	}
	got, err := io.ReadAll(fr)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read after failover: %d bytes, err %v", len(got), err)
	}
}

var _ io.Closer = (*FileReader)(nil)
