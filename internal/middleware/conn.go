package middleware

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// errConnClosed is returned for round trips on a closed connection.
var errConnClosed = errors.New("middleware: connection closed")

// isResponse classifies frame types that answer a prior request.
func isResponse(t MsgType) bool {
	switch t {
	case MsgFileData, MsgForwardAck, MsgAck, MsgErr, MsgStatsReply,
		MsgTraceReply, MsgRunData, MsgInvalSinceReply, MsgViewReply:
		return true
	}
	return false
}

// connConfig parameterizes a conn.
type connConfig struct {
	// handle processes an incoming request and returns the response (nil
	// for one-way messages).
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
	// timeout bounds each round trip (and each socket write): a reply that
	// does not arrive in time fails the RPC with errRPCTimeout instead of
	// wedging the caller. <= 0 disables deadlines.
	timeout time.Duration
	// latency, when non-nil, observes the duration of every round trip,
	// keyed by the request's frame type (per-RPC-type histograms). nil
	// keeps the round-trip path untouched.
	latency func(MsgType, time.Duration)
}

// conn is a multiplexed protocol connection: concurrent round trips are
// correlated by request ID, incoming requests are dispatched to the
// handler through the worker pool, and every received frame is offered to
// observe (piggyback processing).
//
// Frame ownership: frames decoded from the wire are pooled. A response
// frame returned by roundTrip belongs to the caller, who must releaseFrame
// it (after TakePayload if the content is retained). A request frame passed
// to the handler is only valid for the duration of the call; the conn
// releases it afterwards. Handler-returned responses are written and then
// released by the conn. Request frames passed to roundTrip/write stay
// owned by the caller.
type conn struct {
	nc  net.Conn
	br  *bufio.Reader
	cfg connConfig

	wmu  sync.Mutex // serializes frame writes
	wbuf []byte     // reusable encode buffer (guarded by wmu)
	iov  [][]byte   // writev scratch: header + payload + segments (guarded by wmu)

	pmu     sync.Mutex
	pending map[uint32]chan *Frame
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
		pending: make(map[uint32]chan *Frame),
		done:    make(chan struct{}),
	}
	if cfg.handle != nil {
		c.reqCh = make(chan *Frame, 4*cfg.workers)
		for i := 0; i < cfg.workers; i++ {
			go c.workLoop()
		}
	}
	go c.readLoop()
	return c
}

// inlinePayloadMax is the largest payload copied into the contiguous write
// buffer; larger payloads go out via writev (net.Buffers) so a multi-
// megabyte file response is neither copied nor split into extra writes.
const inlinePayloadMax = 64 << 10

// singleFrameWriter marks connections (fault-injected transports) that
// must receive exactly one Write call per frame, so per-Write fault
// decisions operate on whole frames and never tear the stream framing.
type singleFrameWriter interface{ singleFrameWrites() }

// write sends one frame: header and payload in a single socket
// write (one writev for large payloads) instead of one write per section.
// A socket-level write failure poisons the stream (a frame may be half
// out), so it tears the connection down; encode errors leave it intact.
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
	if c.cfg.timeout > 0 {
		// A wedged peer (full TCP window) must fail the write, not block
		// every writer on this conn behind wmu forever.
		c.nc.SetWriteDeadline(time.Now().Add(c.cfg.timeout)) //nolint:errcheck // best effort
	}
	// Scatter-gather: segmented frames (run replies pointing at pinned
	// store buffers) and large single payloads go out as one writev —
	// header + each segment, zero concatenation. Fault-injected transports
	// demand one Write per frame, so they take the contiguous path.
	useWritev := len(f.Segs) > 0 || len(f.Payload) > inlinePayloadMax
	if useWritev {
		if _, single := c.nc.(singleFrameWriter); single {
			useWritev = false
		}
	}
	if useWritev {
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
		bufs := net.Buffers(c.iov)
		_, err = bufs.WriteTo(c.nc)
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
	if err != nil {
		c.close()
	}
	return err
}

// replyChPool recycles the one-shot reply channels of roundTrip.
var replyChPool = sync.Pool{New: func() any { return make(chan *Frame, 1) }}

// putReplyCh drains a possible undelivered response and recycles the
// channel. Callers must guarantee no further send can occur (the pending
// entry is gone: either a response/nil was sent under pmu, or the caller
// deleted the entry itself).
func putReplyCh(ch chan *Frame) {
	select {
	case f := <-ch:
		releaseFrame(f)
	default:
	}
	replyChPool.Put(ch)
}

// roundTrip sends a request and waits for its response. The request frame
// stays owned by the caller; the returned response frame must be released
// by the caller. With a latency observer configured, the whole round trip
// (including a timed-out or failed one — the time was spent either way) is
// recorded under the request's frame type.
func (c *conn) roundTrip(f *Frame) (*Frame, error) {
	if c.cfg.latency == nil {
		return c.doRoundTrip(f)
	}
	typ := f.Type
	start := time.Now()
	resp, err := c.doRoundTrip(f)
	c.cfg.latency(typ, time.Since(start))
	return resp, err
}

func (c *conn) doRoundTrip(f *Frame) (*Frame, error) {
	ch := replyChPool.Get().(chan *Frame)
	c.pmu.Lock()
	if c.closed {
		c.pmu.Unlock()
		replyChPool.Put(ch)
		return nil, errConnClosed
	}
	c.reqSeq++
	id := c.reqSeq
	c.pending[id] = ch
	c.pmu.Unlock()

	f.Req = id
	if err := c.write(f); err != nil {
		c.abandon(id, ch)
		select {
		case <-c.done:
			// The write lost a race with teardown: normalize to the same
			// error pending round trips receive.
			return nil, errConnClosed
		default:
		}
		return nil, err
	}
	var deadline <-chan time.Time
	var tm *time.Timer
	if c.cfg.timeout > 0 {
		tm = getTimer(c.cfg.timeout)
		deadline = tm.C
	}
	var resp *Frame
	var err error
	select {
	case resp = <-ch:
		putReplyCh(ch)
	case <-deadline:
		// The peer is slow or wedged: fail this RPC, keep the conn. The
		// pending entry is removed under pmu, so a late reply can no
		// longer target ch; if one raced in already, abandon releases it
		// back to the pool (no double-release, no leak).
		c.abandon(id, ch)
		err = errRPCTimeout
	case <-c.done:
		c.abandon(id, ch)
		err = errConnClosed
	}
	if tm != nil {
		putTimer(tm)
	}
	if err != nil {
		return nil, err
	}
	if resp == nil {
		return nil, errConnClosed
	}
	if rerr := resp.Err(); rerr != nil {
		releaseFrame(resp)
		return nil, rerr
	}
	return resp, nil
}

// abandon gives up on round trip id: it removes the pending entry (if the
// response has not raced in already) and recycles the reply channel. Sends
// are paired with entry removal under pmu, so after the delete no further
// send can target ch.
func (c *conn) abandon(id uint32, ch chan *Frame) {
	c.pmu.Lock()
	delete(c.pending, id)
	c.pmu.Unlock()
	putReplyCh(ch)
}

func (c *conn) readLoop() {
	defer c.close()
	for {
		f, err := ReadFrame(c.br)
		if err != nil {
			return
		}
		if c.cfg.observe != nil {
			c.cfg.observe(f)
		}
		if isResponse(f.Type) {
			c.pmu.Lock()
			ch, ok := c.pending[f.Req]
			if ok {
				delete(c.pending, f.Req)
				ch <- f // cap 1 and sole sender for this id: never blocks
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
		select {
		case c.reqCh <- f:
		case <-c.done:
			releaseFrame(f)
			return
		}
	}
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
		for id, ch := range c.pending {
			delete(c.pending, id)
			ch <- nil
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
