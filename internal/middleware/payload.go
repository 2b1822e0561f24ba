package middleware

import (
	"sync"
	"sync/atomic"
)

// payloadBuf is an immutable, refcounted block payload: the unit of
// ownership for every block of bytes the live data plane moves. The store
// holds one reference per cached block; serving paths pin additional
// references for the lifetime of a reply (or a reader), so eviction,
// invalidation, and writes can never recycle bytes out from under an
// in-flight use. When the last reference drops, the backing goes back
// where it came from. There are two kinds of backing and no third:
//
//   - frame-backed: an arena frame (frames.go). Every payload bound for a
//     store lands in one: a run reply's blocks (newPooledPayloadBuf), and
//     copies of a home's source reads, a write's install, a forward and
//     Store.Insert's bytes (copyPayloadBuf). A block larger than a frame
//     (a non-default geometry) is class-backed instead.
//   - class-backed: a size-class buffer (getPayload), such as a received
//     frame's payload kept with TakePayloadBuf (a FileReader's head).
//
// No payloadBuf is garbage-collected: a frame never released is a leak
// (which is why Node.Close releases its store), and a frame must never
// reach TakePayload, whose caller would keep it past every release.
//
// The ownership state machine (see DESIGN.md "Zero-copy serving"):
//
//	free  --newPooledPayloadBuf/copyPayloadBuf/TakePayloadBuf--> owned (refs=1)
//	owned --retain--> pinned (refs>1)    // store insert, reply segment
//	pinned --release--> owned            // reply written, reader done
//	owned --release--> free (refs=0)     // last holder gone: frame list or class pool
//
// payloadBuf values are themselves pooled; a released buffer must never be
// touched again (retain after the count hit zero panics).
type payloadBuf struct {
	data []byte
	// back is the memory data lives in: an arena frame when frame is set,
	// else a size-class buffer (nil only when TakePayloadBuf took an empty
	// payload, which has no buffer).
	back  *[]byte
	frame bool
	refs  atomic.Int32
}

var payloadBufPool = sync.Pool{New: func() any { return new(payloadBuf) }}

// newPooledPayloadBuf allocates an n-byte payload with one reference, in an
// arena frame when it fits one and in a size-class buffer otherwise. The
// caller fills data before sharing the buffer; after that the bytes are
// immutable until the last release.
func newPooledPayloadBuf(n int) *payloadBuf {
	pb := payloadBufPool.Get().(*payloadBuf)
	if n <= frameSize {
		p := frames.get()
		pb.data, pb.back, pb.frame = (*p)[:n], p, true
	} else {
		p := getPayload(n)
		pb.data, pb.back, pb.frame = *p, p, false
	}
	pb.refs.Store(1)
	return pb
}

// copyPayloadBuf is a payload holding a copy of data, with one reference:
// how bytes the caller keeps (a source read, a write, a forward's request
// payload) enter a store.
func copyPayloadBuf(data []byte) *payloadBuf {
	pb := newPooledPayloadBuf(len(data))
	copy(pb.data, data)
	return pb
}

// retain adds a reference and returns pb for chaining.
func (pb *payloadBuf) retain() *payloadBuf {
	if pb.refs.Add(1) <= 1 {
		panic("middleware: retain of a released payload")
	}
	return pb
}

// release drops one reference. At zero the backing returns to the frame
// list or its size-class pool and the payloadBuf itself is recycled; any
// alias of pb.data taken before the release is invalid afterwards.
func (pb *payloadBuf) release() {
	if pb == nil {
		return
	}
	n := pb.refs.Add(-1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic("middleware: payload refcount underflow")
	}
	p, frame := pb.back, pb.frame
	pb.data, pb.back, pb.frame = nil, nil, false
	payloadBufPool.Put(pb)
	switch {
	case frame:
		frames.put(p)
	case p != nil:
		putPayload(p)
	}
}
