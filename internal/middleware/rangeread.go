package middleware

import (
	"fmt"
	"io"

	"repro/internal/block"
)

// ReadRange materializes the byte range [off, off+n) of file f through the
// cooperative cache, touching only the blocks the range covers — the
// block-granular access pattern that motivates a *block-based* middleware
// layer over whole-file caching (§1: handling blocks may be inefficient for
// whole-file servers, but serves range-reading services directly).
func (n *Node) ReadRange(f block.FileID, off int64, length int) ([]byte, error) {
	size, err := n.cfg.Source.FileSize(f)
	if err != nil {
		return nil, err
	}
	pins, end, err := n.pinRange(f, size, off, length, nil)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, end-off) // one copy per byte, out of the pinned blocks
	for _, s := range n.segments(make([][]byte, 0, readWindow), pins, off, end) {
		out = append(out, s...)
	}
	releasePins(pins)
	return out, nil
}

// openHeadLen is how much of the file a head-carrying open asks for: one
// readWindow extent of default-geometry (8 KB) blocks, 64 KB, which is also
// a payload pool class. It bounds what a reader holds beyond its caller's
// buffer, and one run fetch on the entry node covers it.
const openHeadLen = readWindow * 8 << 10

// FileReader is a random-access view of a file served through the cluster.
// It implements io.ReaderAt, io.Reader and io.Seeker, so cluster files plug
// directly into code written against the standard library. Each read is one
// or more ranged RPCs of at most maxRangeLen bytes; the reader holds no
// file bytes beyond the caller's buffer, except the head (at most
// openHeadLen bytes) a head-carrying open brought back.
type FileReader struct {
	c    *Client
	file block.FileID
	size int64
	pos  int64
	// entry is the preferred cluster entry node for this reader's RPCs
	// (-1: round-robin). A gateway pins it to the file's home so the read
	// enters where the blocks live — the §4.1 hand-off.
	entry int
	// head is the opening reply's payload, the file's first len(head.data)
	// bytes; reads inside it cost no RPC. It is set by the open and cleared
	// only by Close, so parallel ReadAt calls share it without locking. Nil
	// after a probe-only open, for an empty file and after Close.
	head *payloadBuf
}

// Open returns a reader for file f. The open itself is one zero-length
// ranged read, which validates the file and learns its size (every
// MsgReadRange reply carries the file size in Aux).
func (c *Client) Open(f block.FileID) (*FileReader, error) {
	return c.OpenVia(-1, f)
}

// OpenVia is Open entering the cluster at a specific node (-1 for
// round-robin). Transient failures still fail over to other nodes; the pin
// only biases where requests land first.
func (c *Client) OpenVia(node int, f block.FileID) (*FileReader, error) {
	return c.open(node, f, 0)
}

// OpenHeadVia is OpenVia whose opening round trip also brings back the
// file's first 64 KB, so a reader that goes on to stream the file from the
// start pays one RPC for size and head together where OpenVia plus a read
// pays two. Close the reader to hand the head's buffer back for reuse; a
// reader dropped without Close leaves it to the garbage collector.
func (c *Client) OpenHeadVia(node int, f block.FileID) (*FileReader, error) {
	return c.open(node, f, openHeadLen)
}

// open performs the ranged read [0, headLen) that validates the file,
// sizes it, and keeps the reply's payload as the reader's head.
func (c *Client) open(node int, f block.FileID, headLen int) (*FileReader, error) {
	fr := &FileReader{c: c, file: f, entry: node}
	req := getFrame()
	req.Type, req.File, req.Aux = MsgReadRange, f, packRange(0, headLen)
	resp, _, err := c.failoverTrip(fr.entryNode(), req)
	releaseFrame(req)
	if err != nil {
		return nil, err
	}
	fr.size = resp.Aux
	if len(resp.Payload) > 0 {
		fr.head = resp.TakePayloadBuf() // pool backing travels with the bytes
	}
	releaseFrame(resp)
	return fr, nil
}

// Close releases the head buffer, if the open brought one back. The reader
// stays usable (every read is then a ranged RPC), but Close must not run
// concurrently with reads.
func (fr *FileReader) Close() error {
	if head := fr.head; head != nil {
		fr.head = nil
		head.release()
	}
	return nil
}

// entryNode picks the node a ranged RPC enters at.
func (fr *FileReader) entryNode() int {
	if fr.entry >= 0 {
		return fr.entry
	}
	return fr.c.next()
}

// Size reports the file's size in bytes.
func (fr *FileReader) Size() int64 { return fr.size }

// ReadAt implements io.ReaderAt: it reads len(p) bytes at off or reports
// why it could not, copying what the head covers and looping over ranged
// RPCs for the rest (more than one when len(p) exceeds the per-RPC range
// limit), and returning io.EOF only at true end of file.
func (fr *FileReader) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		// Rejected up front: packRange would silently corrupt a negative
		// offset into a huge unsigned one.
		return 0, fmt.Errorf("middleware: negative read offset %d", off)
	}
	total := 0
	for total < len(p) {
		if off >= fr.size {
			return total, io.EOF
		}
		b, resp, err := fr.piece(off, len(p)-total, maxRangeLen)
		if err != nil {
			return total, err
		}
		n := copy(p[total:], b)
		releaseFrame(resp)
		total += n
		off += int64(n)
	}
	return total, nil
}

// streamChunk bounds each ranged RPC of StreamTo: the 32 KB of io.Copy's
// buffer, so a body streamed without one costs the cluster the same round
// trips as one copied through it.
const streamChunk = 32 << 10

// StreamTo writes the next n bytes of the file from the reader's position
// (fewer at end of file) to w, advancing the position, with no copy buffer:
// the head's bytes and each ranged reply's payload go to w as they are. It
// returns the bytes written and the first error, from the cluster or from
// w; reaching end of file is not an error.
func (fr *FileReader) StreamTo(w io.Writer, n int64) (int64, error) {
	var written int64
	for written < n && fr.pos < fr.size {
		b, resp, err := fr.piece(fr.pos, int(min(n-written, maxRangeLen)), streamChunk)
		if err != nil {
			return written, err
		}
		m, err := w.Write(b)
		releaseFrame(resp)
		written += int64(m)
		fr.pos += int64(m)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// piece returns the bytes the reader serves next from off, at most n and
// past the head at most chunk: a slice of the head, or the payload of one
// ranged RPC, whose reply the caller releases once done with the bytes (nil
// for the head). The server clamps ranges to EOF, which callers never ask
// past, so a short reply is a protocol violation, not an EOF.
func (fr *FileReader) piece(off int64, n, chunk int) ([]byte, *Frame, error) {
	n = int(min(int64(n), fr.size-off))
	if head := fr.head; head != nil && off < int64(len(head.data)) {
		return head.data[off:min(off+int64(n), int64(len(head.data)))], nil, nil
	}
	n = min(n, chunk)
	req := getFrame()
	req.Type, req.File, req.Aux = MsgReadRange, fr.file, packRange(off, n)
	resp, _, err := fr.c.failoverTrip(fr.entryNode(), req)
	releaseFrame(req)
	if err != nil {
		return nil, nil, err
	}
	if got := len(resp.Payload); got < n {
		releaseFrame(resp)
		return nil, nil, fmt.Errorf("middleware: short range reply for file %d: %d of %d bytes", fr.file, got, n)
	}
	return resp.Payload[:n], resp, nil
}

// Read implements io.Reader.
func (fr *FileReader) Read(p []byte) (int, error) {
	n, err := fr.ReadAt(p, fr.pos)
	fr.pos += int64(n)
	return n, err
}

// Seek implements io.Seeker.
func (fr *FileReader) Seek(offset int64, whence int) (int64, error) {
	var abs int64
	switch whence {
	case io.SeekStart:
		abs = offset
	case io.SeekCurrent:
		abs = fr.pos + offset
	case io.SeekEnd:
		abs = fr.size + offset
	default:
		return 0, fmt.Errorf("middleware: bad whence %d", whence)
	}
	if abs < 0 {
		return 0, fmt.Errorf("middleware: negative seek position")
	}
	fr.pos = abs
	return abs, nil
}
