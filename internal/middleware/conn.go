package middleware

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
)

// errConnClosed is returned for round trips on a closed connection.
var errConnClosed = errors.New("middleware: connection closed")

// isResponse classifies frame types that answer a prior request.
func isResponse(t MsgType) bool {
	switch t {
	case MsgFileData, MsgAck, MsgErr, MsgStatsReply,
		MsgTraceReply, MsgRunData, MsgViewReply:
		return true
	}
	return false
}

// connConfig parameterizes a conn.
type connConfig struct {
	// handle processes an incoming request and returns the response (nil
	// for one-way messages, which a MsgDirDrop always is).
	handle func(*Frame) *Frame
	// observe sees every incoming frame before dispatch (may be nil).
	observe func(*Frame)
	// stamp decorates every outgoing frame (sender id, piggybacked age);
	// may be nil.
	stamp func(*Frame)
	// workers bounds concurrent request handling on this conn: that many
	// worker goroutines are fed from a bounded queue, so a request burst
	// applies TCP backpressure instead of spawning unboundedly. It must be
	// positive when handle is set.
	workers int
	// timeout bounds each round trip and each socket write. One sweep per
	// conn, every timeout/8, fails a round trip whose reply has not arrived
	// by its deadline with errRPCTimeout (the conn stays up), and aborts a
	// socket write that has been in progress for a whole timeout (the conn
	// closes, as after any failed write). A round trip thus fails within
	// [timeout, timeout + timeout/8] of its start, a stalled write within
	// one more period. <= 0 disables deadlines and the sweep.
	timeout time.Duration
	// latency, when non-nil, observes the duration of every round trip,
	// keyed by the request's frame type (per-RPC-type histograms). nil
	// keeps the round-trip path untouched.
	latency func(MsgType, time.Duration)
}

// replyInto says where a round trip's reply payload lands. The reader looks
// it up with the round trip after the reply's header and before its
// payload. The zero value, and every request, lands in a pooled frame
// buffer.
type replyInto struct {
	kind intoKind
	// A run reply's layout (intoRun): blocks first..first+count-1 of a
	// size-byte file of geometry geom, after one 4-byte code per block when
	// codes is set (a home reply).
	codes bool
	first int32
	count int
	size  int64
	geom  block.Geometry
}

// intoKind is where a reply payload lands.
type intoKind uint8

const (
	// intoPooled: one pooled frame buffer, recycled with the frame.
	intoPooled intoKind = iota
	// intoOwned: one exact-length slice for the caller to keep (TakePayload).
	intoOwned
	// intoRun: a MsgRunData reply's blocks each straight into an arena
	// frame of its own (Frame.bufs), a home reply's codes into the pooled
	// Payload. A reply whose length disagrees with its layout lands pooled,
	// as one buffer, for the caller to refuse.
	intoRun
)

// call is one round trip's pending entry: the channel its reply arrives on,
// where the reply's payload lands, and the deadline the sweep holds it to.
// Every send on ch is paired with the entry's removal under pmu, so an entry
// receives exactly one send: the reply, or nil with err set.
type call struct {
	ch       chan *Frame // capacity 1
	into     replyInto
	deadline time.Time
	err      error // why nil was sent: errRPCTimeout or errConnClosed
}

// callPool recycles the pending entries of roundTrip.
var callPool = sync.Pool{New: func() any { return &call{ch: make(chan *Frame, 1)} }}

// putCall recycles a call whose channel is empty.
func putCall(cl *call) {
	*cl = call{ch: cl.ch}
	callPool.Put(cl)
}

// conn is a multiplexed protocol connection: concurrent round trips are
// correlated by request ID, incoming requests are dispatched to the
// handler through the worker pool, and every received frame is offered to
// observe (piggyback processing).
//
// Frame ownership: frames decoded from the wire are pooled. A response
// frame returned by roundTrip belongs to the caller, who must releaseFrame
// it (after TakePayload if the content is retained, or after taking the
// blocks of an intoRun reply out of bufs). A request frame passed to the
// handler is only valid for the duration of the call; the conn releases it
// afterwards. Handler-returned responses are written and then released by
// the conn. Request frames passed to roundTrip/write stay owned by the
// caller.
type conn struct {
	nc  net.Conn
	br  *bufio.Reader
	hdr [headerLen]byte // the read loop's header scratch
	cfg connConfig

	wmu  sync.Mutex  // serializes frame writes
	wbuf []byte      // reusable encode buffer (guarded by wmu)
	iov  [][]byte    // writev scratch: header + payload + segments (guarded by wmu)
	wv   net.Buffers // iov as writev consumes it; a field, so it does not escape (guarded by wmu)
	// wseq counts socket-write starts and ends: odd while one is in
	// progress, so the sweep can tell a stalled write from a busy conn.
	wseq atomic.Uint64

	pmu     sync.Mutex
	pending map[uint32]*call
	reqSeq  uint32
	closed  bool

	reqCh chan *Frame // the worker pool's queue (nil without a handler)

	closeOnce sync.Once
	done      chan struct{}
}

func newConn(nc net.Conn, cfg connConfig) *conn {
	c := &conn{
		nc:      nc,
		br:      bufio.NewReaderSize(nc, 64*1024),
		cfg:     cfg,
		pending: make(map[uint32]*call),
		done:    make(chan struct{}),
	}
	if cfg.handle != nil {
		c.reqCh = make(chan *Frame, 4*cfg.workers)
		for i := 0; i < cfg.workers; i++ {
			go c.workLoop()
		}
	}
	if cfg.timeout > 0 {
		go c.sweep()
	}
	go c.readLoop()
	return c
}

// singleFrameWriter marks connections (fault-injected transports) that
// must receive exactly one Write call per frame, so per-Write fault
// decisions operate on whole frames and never tear the stream framing.
type singleFrameWriter interface{ singleFrameWrites() }

// write sends one frame: header and payload in a single socket
// write (one writev for a segmented frame) instead of one write per section.
// A socket-level write failure poisons the stream (a frame may be half
// out), so it tears the connection down; encode errors leave it intact.
// A write that stalls (a wedged peer with a full TCP window) is the
// sweep's to abort, so it cannot block every writer behind wmu forever.
func (c *conn) write(f *Frame) error {
	if c.cfg.stamp != nil {
		c.cfg.stamp(f)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	buf, err := appendHeader(c.wbuf[:0], f)
	if err != nil {
		return err
	}
	c.wseq.Add(1)
	// Scatter-gather: segmented frames (run and read replies pointing at
	// pinned store buffers) go out as one writev — header + each segment,
	// zero concatenation. Fault-injected transports demand one Write per
	// frame, so they take the contiguous path.
	if _, single := c.nc.(singleFrameWriter); len(f.Segs) > 0 && !single {
		c.wbuf = buf
		c.iov = append(c.iov[:0], buf)
		if len(f.Payload) > 0 {
			c.iov = append(c.iov, f.Payload)
		}
		for _, s := range f.Segs {
			if len(s) > 0 {
				c.iov = append(c.iov, s)
			}
		}
		c.wv = c.iov
		_, err = c.wv.WriteTo(c.nc)
		for i := range c.iov {
			c.iov[i] = nil // drop payload references; scratch is retained
		}
	} else {
		buf = append(buf, f.Payload...)
		for _, s := range f.Segs {
			buf = append(buf, s...)
		}
		c.wbuf = buf
		_, err = c.nc.Write(buf)
	}
	c.wseq.Add(1)
	if err != nil {
		c.close()
	}
	return err
}

// send writes a one-way frame: no pending entry, no reply. The frame
// stays owned by the caller, whose payload may go back to its owner as soon
// as send returns. A write that fails on a closed conn, or closes it,
// reports errConnClosed, as a round trip on it would.
func (c *conn) send(f *Frame) error {
	err := c.write(f)
	if err != nil {
		select {
		case <-c.done:
			return errConnClosed
		default:
		}
	}
	return err
}

// roundTrip sends a request and waits for its response. The request frame
// stays owned by the caller; the returned response frame must be released
// by the caller, its payload landed as the request's into says. With a
// latency observer configured, the whole round trip (including a timed-out
// or failed one — the time was spent either way) is recorded under the
// request's frame type; the same clock read starts the deadline.
func (c *conn) roundTrip(f *Frame) (*Frame, error) {
	if c.cfg.latency == nil && c.cfg.timeout <= 0 {
		return c.doRoundTrip(f, time.Time{})
	}
	typ := f.Type
	start := time.Now()
	resp, err := c.doRoundTrip(f, start)
	if c.cfg.latency != nil {
		c.cfg.latency(typ, time.Since(start))
	}
	return resp, err
}

func (c *conn) doRoundTrip(f *Frame, start time.Time) (*Frame, error) {
	cl := callPool.Get().(*call)
	cl.into = f.into
	if c.cfg.timeout > 0 {
		cl.deadline = start.Add(c.cfg.timeout)
	}
	c.pmu.Lock()
	if c.closed {
		c.pmu.Unlock()
		putCall(cl)
		return nil, errConnClosed
	}
	c.reqSeq++
	id := c.reqSeq
	c.pending[id] = cl
	c.pmu.Unlock()

	f.Req = id
	if err := c.write(f); err != nil {
		c.abandon(id, cl)
		select {
		case <-c.done:
			// The write lost a race with teardown: normalize to the same
			// error pending round trips receive.
			return nil, errConnClosed
		default:
		}
		return nil, err
	}
	// The reply, the sweep (errRPCTimeout: the peer is slow or wedged, the
	// conn stays) or close (errConnClosed) answers, each exactly once.
	resp := <-cl.ch
	err := cl.err
	putCall(cl)
	if resp == nil {
		return nil, err
	}
	if rerr := resp.Err(); rerr != nil {
		releaseFrame(resp)
		return nil, rerr
	}
	return resp, nil
}

// abandon gives up on round trip id: it removes the pending entry and
// recycles the call. An entry already gone has had its one send, which is
// drained (a reply that raced in goes back to the pool).
func (c *conn) abandon(id uint32, cl *call) {
	c.pmu.Lock()
	mine := c.pending[id] == cl
	delete(c.pending, id)
	c.pmu.Unlock()
	if !mine {
		releaseFrame(<-cl.ch)
	}
	putCall(cl)
}

// sweep enforces the timeout until the conn closes: every timeout/8 it
// fails the round trips past their deadline, and it aborts a socket write
// seen in progress, without finishing, for a whole timeout by moving the
// write deadline into the past (the failed write closes the conn). A
// stalled write that completes just as the sweep aborts it leaves the past
// deadline to fail the next write instead: the conn closes either way.
func (c *conn) sweep() {
	t := time.NewTicker(c.cfg.timeout / 8)
	defer t.Stop()
	var seq uint64
	var since time.Time
	for {
		select {
		case <-c.done:
			return
		case now := <-t.C:
			if s := c.wseq.Load(); s != seq {
				seq, since = s, now
			} else if s%2 == 1 && now.Sub(since) >= c.cfg.timeout {
				c.nc.SetWriteDeadline(time.Unix(1, 0)) //nolint:errcheck // best effort
			}
			c.pmu.Lock()
			for id, cl := range c.pending {
				if !now.Before(cl.deadline) {
					delete(c.pending, id)
					cl.err = errRPCTimeout
					cl.ch <- nil // the entry's one send
				}
			}
			c.pmu.Unlock()
		}
	}
}

func (c *conn) readLoop() {
	defer c.close()
	for {
		f, err := c.readFrame()
		if err != nil {
			return
		}
		if c.cfg.observe != nil {
			c.cfg.observe(f)
		}
		if isResponse(f.Type) {
			c.pmu.Lock()
			cl, ok := c.pending[f.Req]
			if ok {
				delete(c.pending, f.Req)
				cl.ch <- f // the entry's one send: never blocks
			}
			c.pmu.Unlock()
			if !ok {
				releaseFrame(f) // unmatched (abandoned or bogus) response
			}
			continue
		}
		if c.cfg.handle == nil {
			releaseFrame(f)
			continue
		}
		if f.Type == MsgDirDrop {
			// One-way and applied here, in arrival order, never queued
			// behind a worker's source read: its handling neither blocks
			// nor writes. A MsgForward is one-way too, but its handler
			// writes, so it is queued.
			c.cfg.handle(f)
			releaseFrame(f)
			continue
		}
		select {
		case c.reqCh <- f:
		case <-c.done:
			releaseFrame(f)
			return
		}
	}
}

// readFrame decodes the next frame, its header into the conn's scratch and
// a response's payload where its round trip asked (replyInto). The entry
// stays pending while the payload streams in, so the sweep still fails a
// caller whose reply stalls mid-frame; such a reply is then unmatched.
func (c *conn) readFrame() (*Frame, error) {
	if _, err := io.ReadFull(c.br, c.hdr[:]); err != nil {
		return nil, err
	}
	f, plen, err := decodeHeader(&c.hdr, maxPayload)
	if err != nil {
		return nil, err
	}
	var into replyInto
	if plen > 0 && isResponse(f.Type) {
		c.pmu.Lock()
		if cl := c.pending[f.Req]; cl != nil {
			into = cl.into
		}
		c.pmu.Unlock()
	}
	switch {
	case into.kind == intoOwned:
		f.Payload = make([]byte, plen)
		_, err = io.ReadFull(c.br, f.Payload)
	case into.kind == intoRun && f.Type == MsgRunData:
		err = c.readRun(f, plen, &into)
	default:
		err = readPooled(c.br, f, plen)
	}
	if err != nil {
		releaseFrame(f)
		return nil, err
	}
	return f, nil
}

// served reports whether block first+i of a run reply laid out as in is
// served: a peer run serves the prefix of count blocks its Aux names, a home
// reply the blocks its codes (f.Payload) mark homeServed.
func (in *replyInto) served(f *Frame, i, count int) bool {
	if !in.codes {
		return i < count
	}
	return int32(binary.BigEndian.Uint32(f.Payload[4*i:])) == homeServed
}

// readRun reads a run reply's plen-byte payload laid out as in says: the
// codes of a home reply into the pooled Payload, then each served block —
// the prefix the Aux count names of a peer run, the blocks coded homeServed
// of a home reply — into a frame-backed payloadBuf of its own in f.bufs
// (newPooledPayloadBuf), ready for the store to keep. A payload
// whose length disagrees with that layout lands pooled instead, as one
// buffer, which the caller's checks refuse.
func (c *conn) readRun(f *Frame, plen int, in *replyInto) error {
	head := 0
	if in.codes {
		head = 4 * in.count
	}
	if plen < head {
		return readPooled(c.br, f, plen)
	}
	if err := readPooled(c.br, f, head); err != nil {
		return err
	}
	served, _ := unpackRunAux(f.Aux)
	body := 0
	if !in.codes && served > in.count {
		body = -1
	}
	for i := 0; i < in.count && body >= 0; i++ {
		if in.served(f, i, served) {
			if l := blockLen(in.geom, in.size, in.first+int32(i)); l >= 0 {
				body += l
			} else {
				body = -1
			}
		}
	}
	if body != plen-head {
		codes := f.pbuf
		f.pbuf = getPayload(plen)
		f.Payload = *f.pbuf
		if codes != nil {
			copy(f.Payload, *codes)
			putPayload(codes)
		}
		_, err := io.ReadFull(c.br, f.Payload[head:])
		return err
	}
	f.bufs = f.bufArr[:0]
	for i := 0; i < in.count; i++ {
		if !in.served(f, i, served) {
			continue
		}
		pb := newPooledPayloadBuf(blockLen(in.geom, in.size, in.first+int32(i)))
		f.bufs = append(f.bufs, pb) // released with f on a failed read
		if _, err := io.ReadFull(c.br, pb.data); err != nil {
			return err
		}
	}
	return nil
}

// workLoop is one pool worker: it drains the request queue until
// the conn closes.
func (c *conn) workLoop() {
	for {
		select {
		case f := <-c.reqCh:
			c.serveRequest(f)
		case <-c.done:
			return
		}
	}
}

// serveRequest runs the handler for one request and writes its response.
// It owns req (released after the handler returns) and the handler's
// response (released after the write).
func (c *conn) serveRequest(req *Frame) {
	resp := c.cfg.handle(req)
	reqID := req.Req
	releaseFrame(req)
	if resp == nil {
		return
	}
	resp.Req = reqID
	err := c.write(resp)
	releaseFrame(resp)
	if err != nil {
		c.close()
	}
}

// close tears down the connection and fails outstanding round trips.
func (c *conn) close() {
	c.closeOnce.Do(func() {
		close(c.done)
		c.nc.Close()
		c.pmu.Lock()
		c.closed = true
		for id, cl := range c.pending {
			delete(c.pending, id)
			cl.err = errConnClosed
			cl.ch <- nil // the entry's one send
		}
		c.pmu.Unlock()
	})
}

// errFrame builds a MsgErr response.
func errFrame(format string, args ...any) *Frame {
	f := getFrame()
	f.Type = MsgErr
	f.Payload = []byte(fmt.Sprintf(format, args...))
	return f
}

// errFrameFrom builds a MsgErr response for err, preserving its
// classification across the wire: not-found failures are flagged so the
// requesting client reconstructs errors.Is(err, ErrUnknownFile).
func errFrameFrom(err error, format string, args ...any) *Frame {
	f := errFrame(format, args...)
	if errors.Is(err, ErrUnknownFile) {
		f.Flags |= FlagNotFound
	}
	return f
}

// ackFrame builds a bare MsgAck response.
func ackFrame() *Frame {
	f := getFrame()
	f.Type = MsgAck
	return f
}
