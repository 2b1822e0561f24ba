package middleware

import (
	"bytes"
	"io"
	"runtime"
	"testing"
	"testing/iotest"

	"repro/internal/block"
	"repro/internal/core"
)

func TestReadRangeNode(t *testing.T) {
	sizes := map[block.FileID]int64{0: 2500}
	nodes, _ := startCluster(t, 2, 64, sizes, nil)
	full := expect(testGeom, 0, 2500)

	cases := []struct {
		off int64
		n   int
	}{
		{0, 100},     // within first block
		{1000, 100},  // spanning a block boundary
		{2400, 100},  // exactly to EOF
		{2400, 1000}, // clamped at EOF
		{0, 2500},    // whole file
		{2500, 10},   // empty at EOF
		{1024, 1024}, // exactly one block
	}
	for _, c := range cases {
		got, err := nodes[0].ReadRange(0, c.off, c.n)
		if err != nil {
			t.Fatalf("ReadRange(%d, %d): %v", c.off, c.n, err)
		}
		wantLen := c.n
		if rem := int(2500 - c.off); wantLen > rem {
			wantLen = rem
		}
		if len(got) != wantLen {
			t.Fatalf("ReadRange(%d, %d) = %d bytes, want %d", c.off, c.n, len(got), wantLen)
		}
		if !bytes.Equal(got, full[c.off:c.off+int64(wantLen)]) {
			t.Fatalf("ReadRange(%d, %d): content mismatch", c.off, c.n)
		}
	}
	if _, err := nodes[0].ReadRange(0, -1, 10); err == nil {
		t.Fatal("negative offset accepted")
	}
	if _, err := nodes[0].ReadRange(0, 3000, 10); err == nil {
		t.Fatal("offset beyond EOF accepted")
	}
}

func TestReadRangeTouchesOnlyCoveredBlocks(t *testing.T) {
	sizes := map[block.FileID]int64{0: 10 * 1024} // 10 blocks
	nodes, _ := startCluster(t, 1, 64, sizes, nil)
	if _, err := nodes[0].ReadRange(0, 3*1024, 1024); err != nil {
		t.Fatal(err)
	}
	if got := nodes[0].Stats().DiskReads; got != 1 {
		t.Fatalf("disk reads = %d, want 1 (only the covered block)", got)
	}
}

func TestFileReaderInterfaces(t *testing.T) {
	sizes := map[block.FileID]int64{7: 5000}
	_, client := startCluster(t, 3, 64, sizes, nil)
	fr, err := client.Open(7)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Size() != 5000 {
		t.Fatalf("Size = %d", fr.Size())
	}
	full := expect(testGeom, 7, 5000)

	// io.ReaderAt semantics.
	buf := make([]byte, 1000)
	n, err := fr.ReadAt(buf, 2000)
	if err != nil || n != 1000 || !bytes.Equal(buf, full[2000:3000]) {
		t.Fatalf("ReadAt: n=%d err=%v", n, err)
	}
	// Short read at EOF.
	n, err = fr.ReadAt(buf, 4500)
	if err != io.EOF || n != 500 {
		t.Fatalf("ReadAt near EOF: n=%d err=%v", n, err)
	}
	if _, err := fr.ReadAt(buf, 6000); err != io.EOF {
		t.Fatalf("ReadAt past EOF: %v", err)
	}

	// io.Reader + io.Seeker: stream the whole file and compare.
	if _, err := fr.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(fr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, full) {
		t.Fatal("streamed content mismatch")
	}

	// Seek semantics.
	if pos, err := fr.Seek(-100, io.SeekEnd); err != nil || pos != 4900 {
		t.Fatalf("SeekEnd: %d, %v", pos, err)
	}
	if _, err := fr.Seek(-1, io.SeekStart); err == nil {
		t.Fatal("negative seek accepted")
	}
	if _, err := fr.Seek(0, 99); err == nil {
		t.Fatal("bad whence accepted")
	}
}

func TestOpenUnknownFile(t *testing.T) {
	sizes := map[block.FileID]int64{0: 1024}
	_, client := startCluster(t, 2, 64, sizes, nil)
	err := func() error { _, err := client.Open(99); return err }()
	if err == nil {
		t.Fatal("unknown file opened")
	}
	if !IsNotFound(err) {
		t.Fatalf("open of unknown file not classified not-found: %v", err)
	}
}

// TestFileReaderContract runs the stdlib iotest contract checker over
// files straddling block boundaries: FileReader must behave exactly like
// bytes.Reader for Read, ReadAt, and Seek.
func TestFileReaderContract(t *testing.T) {
	sizes := map[block.FileID]int64{
		0: 1024, // exactly one block
		1: 1023, // one byte short of a block
		2: 1025, // one byte over
		3: 4096, // multi-block, aligned
		4: 5000, // multi-block, unaligned tail
	}
	_, client := startCluster(t, 2, 64, sizes, nil)
	for f, size := range sizes {
		fr, err := client.Open(f)
		if err != nil {
			t.Fatalf("open %d: %v", f, err)
		}
		if err := iotest.TestReader(fr, expect(testGeom, f, size)); err != nil {
			t.Fatalf("file %d (%d bytes): %v", f, size, err)
		}
	}
	fr, err := client.Open(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fr.ReadAt(make([]byte, 10), -1); err == nil || err == io.EOF {
		t.Fatalf("negative offset: err = %v, want a non-EOF error", err)
	}
}

// TestFileReaderReadAtBeyondRangeLimit pins the io.ReaderAt contract for
// buffers larger than one ranged RPC can carry (maxRangeLen): ReadAt must
// loop over RPCs until the buffer is full, and return io.EOF only at true
// end of file — the exact case the pre-fix code answered with a short read
// and a spurious EOF.
func TestFileReaderReadAtBeyondRangeLimit(t *testing.T) {
	geom := block.Geometry{Size: 64 * 1024, ExtentBlocks: 8} // big blocks keep the block count sane
	size := int64(maxRangeLen) + 200_000
	sizes := map[block.FileID]int64{3: size}
	nodes := make([]*Node, 2)
	addrs := make([]string, 2)
	for i := range nodes {
		n, err := Start(Config{
			ID: i, CapacityBlocks: 512, Policy: core.PolicyMaster,
			Geometry: geom, Source: NewMemSource(geom, sizes),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		addrs[i] = n.Addr()
		t.Cleanup(func() { n.Close() })
	}
	for _, n := range nodes {
		n.SetAddrs(addrs)
	}
	client, err := DialCluster(addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })

	fr, err := client.Open(3)
	if err != nil {
		t.Fatal(err)
	}
	full := expect(geom, 3, size)

	const off = 50_000
	buf := make([]byte, maxRangeLen+100_000) // needs two ranged RPCs
	n, err := fr.ReadAt(buf, off)
	if err != nil {
		t.Fatalf("ReadAt: n=%d err=%v (spurious EOF regression?)", n, err)
	}
	if n != len(buf) {
		t.Fatalf("ReadAt filled %d of %d bytes", n, len(buf))
	}
	if !bytes.Equal(buf, full[off:off+int64(len(buf))]) {
		t.Fatal("chunked ReadAt content mismatch")
	}

	// A buffer larger than the remaining file still ends in a true EOF.
	tail := make([]byte, maxRangeLen+100_000)
	n, err = fr.ReadAt(tail, size-1000)
	if err != io.EOF || n != 1000 {
		t.Fatalf("ReadAt at tail: n=%d err=%v, want 1000, io.EOF", n, err)
	}
	if !bytes.Equal(tail[:n], full[size-1000:]) {
		t.Fatal("tail content mismatch")
	}
}

func TestPackRange(t *testing.T) {
	for _, c := range []struct {
		off int64
		n   int
	}{{0, 0}, {1, 2}, {1 << 38, maxRangeLen}, {123456789, 8192}} {
		off, n := unpackRange(packRange(c.off, c.n))
		if off != c.off || n != c.n {
			t.Errorf("pack/unpack(%d,%d) = (%d,%d)", c.off, c.n, off, n)
		}
	}
}

var (
	_ io.ReaderAt = (*FileReader)(nil)
	_ io.Reader   = (*FileReader)(nil)
	_ io.Seeker   = (*FileReader)(nil)
)

// TestClientReplyOwnership pins who owns a reply's buffer. Client.ReadVia
// returns the whole file in a slice of exactly its length, read straight
// off the wire and never pooled. A FileReader's ranged reply stays in a
// pooled frame buffer that goes back to its pool after the copy out, so
// ranged reads of a warm file allocate far less than the bytes they move.
func TestClientReplyOwnership(t *testing.T) {
	const size = 20_000
	sizes := map[block.FileID]int64{1: size}
	_, client := startCluster(t, 2, 64, sizes, nil)
	data, err := client.ReadVia(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, expect(testGeom, 1, size)) || cap(data) != len(data) {
		t.Fatalf("ReadVia returned %d bytes in a %d-byte buffer, want the file in an exact-length one", len(data), cap(data))
	}

	fr, err := client.OpenVia(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16<<10)
	read := func() {
		if n, err := fr.ReadAt(buf, 1000); err != nil || n != len(buf) {
			t.Fatalf("ReadAt: n=%d err=%v", n, err)
		}
	}
	read() // warm the pools
	const reads = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range reads {
		read()
	}
	runtime.ReadMemStats(&after)
	if perRead := (after.TotalAlloc - before.TotalAlloc) / reads; perRead >= uint64(len(buf))/2 {
		t.Fatalf("a %d-byte ranged read allocated %d bytes: its reply buffer is not recycled", len(buf), perRead)
	}
	if !bytes.Equal(buf, expect(testGeom, 1, size)[1000:1000+len(buf)]) {
		t.Fatal("ranged read content mismatch")
	}
}
