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
	return n.readRange(f, size, off, length)
}

// readRange is ReadRange against a file size the caller already looked up:
// the MsgReadRange handler reports that same size in its reply, so the
// range is clamped to exactly the size the client is told, and the source
// is asked once per request.
func (n *Node) readRange(f block.FileID, size, off int64, length int) ([]byte, error) {
	if off < 0 || length < 0 || off > size {
		return nil, fmt.Errorf("middleware: range %d+%d outside file %d (%d bytes)", off, length, f, size)
	}
	if rem := size - off; int64(length) > rem {
		length = int(rem)
	}
	if length == 0 {
		return nil, nil
	}
	bs := int64(n.geom.Size)
	first := int32(off / bs)
	last := int32((off + int64(length) - 1) / bs)
	// Presized output filled in place by the run planner: one copy per block.
	out := make([]byte, length)
	pos := 0
	i := first
	if start := off - int64(first)*bs; start > 0 {
		// Unaligned head: the needed bytes are a mid-block suffix, which the
		// planner's prefix copy cannot produce — pin the block once and copy
		// just the suffix out of the pinned buffer.
		pb, _, err := n.getBlock(block.ID{File: f, Idx: first}, size, nil, dirNoEntry)
		if err != nil {
			return nil, err
		}
		data := pb.data
		if start > int64(len(data)) {
			pb.release()
			return nil, fmt.Errorf("middleware: block %d:%d shorter than range start", f, first)
		}
		end := int64(len(data))
		if end > start+int64(length) {
			end = start + int64(length)
		}
		pos = copy(out, data[start:end])
		pb.release()
		i++
	}
	if i > last || pos == length {
		return out, nil
	}
	if err := n.readPlanned(f, size, i, last, out[pos:]); err != nil {
		return nil, err
	}
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
		if head := fr.head; head != nil && off < int64(len(head.data)) {
			n := copy(p[total:], head.data[off:])
			total += n
			off += int64(n)
			continue
		}
		want := len(p) - total
		if rem := fr.size - off; int64(want) > rem {
			want = int(rem)
		}
		if want > maxRangeLen {
			want = maxRangeLen
		}
		req := getFrame()
		req.Type, req.File, req.Aux = MsgReadRange, fr.file, packRange(off, want)
		resp, _, err := fr.c.failoverTrip(fr.entryNode(), req)
		releaseFrame(req)
		if err != nil {
			return total, err
		}
		// Copy into the caller's buffer, then recycle the pooled payload:
		// the ranged-read reply is the one response path whose payload
		// never needs to outlive the call.
		n := copy(p[total:], resp.Payload)
		releaseFrame(resp)
		total += n
		off += int64(n)
		if n < want {
			// The server clamps ranges to EOF; any other short reply is a
			// protocol violation, not an EOF.
			if off >= fr.size {
				return total, io.EOF
			}
			return total, fmt.Errorf("middleware: short range reply for file %d: %d of %d bytes", fr.file, n, want)
		}
	}
	return total, nil
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
