// Package middleware is a working TCP implementation of the cooperative
// caching layer the paper simulates: N nodes on a LAN (or one machine) pool
// their memories into a single block cache with master-copy tracking, a
// global directory, eviction forwarding, and the master-preserving
// replacement policy. It also implements the paper's §6 future work on
// writes: a write-invalidate protocol.
//
// The wire protocol is deliberately small: length-prefixed binary frames
// over long-lived TCP connections, with request/response correlation IDs so
// many operations multiplex over one connection. Every frame piggybacks the
// sender's oldest-block age, giving each node the peer-age knowledge the
// replacement algorithm needs (§3) without dedicated traffic.
//
// The codec is allocation-light: Frame structs and payload buffers are
// recycled through size-classed pools, and every frame leaves in one
// socket call: header and payload encoded into one contiguous buffer, or,
// for a reply whose segments alias pinned store blocks, one writev of the
// header and the segments. See conn.go for the ownership contract.
package middleware

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync"

	"repro/internal/block"
)

// MsgType identifies a frame.
type MsgType uint8

// Frame types.
const (
	// MsgReadFile asks a node to return a whole file (client entry point).
	MsgReadFile MsgType = iota + 1
	// MsgFileData returns whole-file content.
	MsgFileData
	// MsgDirDrop repoints one block's directory entry at its file's home, a
	// compare-and-set: Aux is ifNode<<32 | uint32(toNode), and toNode
	// dirNoEntry drops the entry. One-way: the home applies it on the
	// conn's read loop, in arrival order, and sends no reply.
	MsgDirDrop
	// MsgForward ships an evicted master to a peer (§3 second chance).
	// One-way: the target records the outcome at the block's home with a
	// MsgDirDrop of its own, and sends the evictor nothing.
	MsgForward
	// MsgWriteBlock writes one block through the cluster (client entry).
	MsgWriteBlock
	// MsgPutBlock stores block content on the home node's disk.
	MsgPutBlock
	// MsgAck is a generic success reply.
	MsgAck
	// MsgErr carries an error string.
	MsgErr
	// MsgStats asks a node for its counters (introspection).
	MsgStats
	// MsgStatsReply returns encoded Stats.
	MsgStatsReply
	// MsgReadRange asks a node for a byte range of a file: Aux packs the
	// offset (high 39 bits) and length (low 24 bits) via packRange.
	MsgReadRange
	// MsgTrace asks a node for its protocol event trace (observability).
	MsgTrace
	// MsgTraceReply returns the JSON-encoded trace dump.
	MsgTraceReply
	// MsgGetRun asks for blocks of the span that starts at (File, Idx): Aux
	// packs the span's block count and a wanted-block bitmap (packRunAux).
	// Without FlagMaster or a bitmap it is a peer run: the target serves the
	// contiguous prefix it caches (an empty answer is a miss). With a bitmap
	// it is a home miss (serveHome); FlagMaster makes that a source read and
	// claim, and FlagMaster without a bitmap a source read of the whole span
	// that leaves the directory alone (the rebalance pull).
	MsgGetRun
	// MsgRunData answers MsgGetRun: the served blocks' content concatenated
	// in index order, after one code per block (appendHomeCodes) unless it
	// answers a peer run, and Aux packs the served count and the per-block
	// master flags (packRunAux).
	MsgRunData
	// MsgInvalidateN carries a window of sequenced invalidation records
	// from the origin node's invalidation bus: the payload is the first
	// record's sequence number (8 bytes big-endian) followed by one 8-byte
	// block ID (file, idx — 4 bytes each) per record; Aux is the last
	// sequence in the window (consecutive — coalesced records keep their
	// sequence slots). flagTruncated marks a window the receiver must flush
	// its cache before applying. The receiver replies MsgAck with Aux
	// carrying its applied mark for that origin.
	MsgInvalidateN
	// MsgPing is the heartbeat probe. Aux carries the sender's membership
	// epoch; the MsgAck reply carries the receiver's, so either side learns
	// it is behind and fetches the newer view (anti-entropy).
	MsgPing
	// MsgView asks a node for its current membership view, answered by
	// MsgViewReply. Clients use it to re-discover entry nodes after their
	// construction-time list goes stale.
	MsgView
	// MsgViewUpdate pushes a membership view (payload: see appendView) to a
	// peer, which installs it if newer. Answered by MsgAck.
	MsgViewUpdate
	// MsgJoin asks the cluster to admit a new member. Aux is the joiner's
	// requested slot ID, the payload its listen address. Any member accepts
	// the frame and forwards it to the coordinator; the MsgViewReply carries
	// the view that includes the joiner.
	MsgJoin
	// MsgDrain asks the cluster to move member Aux out of the ring
	// (state draining: it keeps serving while successors pull its blocks).
	// Forwarded to the coordinator like MsgJoin; answered by MsgViewReply.
	MsgDrain
	// MsgViewReply answers MsgView/MsgJoin/MsgDrain with a serialized view.
	MsgViewReply
)

// msgTypeCount bounds the frame-type space (array sizing for per-type
// metrics).
const msgTypeCount = int(MsgViewReply) + 1

// metricName is the snake_case label value a frame type gets in the
// per-RPC-type latency histograms and the trace dump.
func (t MsgType) metricName() string {
	switch t {
	case MsgReadFile:
		return "read_file"
	case MsgFileData:
		return "file_data"
	case MsgDirDrop:
		return "dir_drop"
	case MsgForward:
		return "forward"
	case MsgWriteBlock:
		return "write_block"
	case MsgPutBlock:
		return "put_block"
	case MsgAck:
		return "ack"
	case MsgErr:
		return "err"
	case MsgStats:
		return "stats"
	case MsgStatsReply:
		return "stats_reply"
	case MsgReadRange:
		return "read_range"
	case MsgTrace:
		return "trace"
	case MsgTraceReply:
		return "trace_reply"
	case MsgGetRun:
		return "get_run"
	case MsgRunData:
		return "run_data"
	case MsgInvalidateN:
		return "invalidate_n"
	case MsgPing:
		return "ping"
	case MsgView:
		return "view"
	case MsgViewUpdate:
		return "view_update"
	case MsgJoin:
		return "join"
	case MsgDrain:
		return "drain"
	case MsgViewReply:
		return "view_reply"
	}
	return fmt.Sprintf("type_%d", uint8(t))
}

// packRange encodes a byte range into an Aux value: the offset in the high
// 39 value bits of the int64 (offset < 2^39, a 512 GB file cap) and the
// length in the low 24 bits (length < 2^24, a 16 MB range cap, far above
// any sensible request).
func packRange(off int64, n int) int64 {
	return off<<24 | int64(n)
}

// unpackRange decodes packRange.
func unpackRange(aux int64) (off int64, n int) {
	return aux >> 24, int(aux & (1<<24 - 1))
}

// maxRangeLen bounds one MsgReadRange request.
const maxRangeLen = 1<<24 - 1

// maxRunBlocks bounds one MsgGetRun request: the packRunAux layout grants
// the per-block master flags 32 bits, and 32 blocks of the default 8 KB
// geometry is a 256 KB response — four of the paper's pipelined-fetch extent
// windows, far past where per-run amortization has flattened.
const maxRunBlocks = 32

// dirNoEntry is the directory's "no master": a MsgDirDrop target that drops
// the entry, and the home-reply code of a block neither served nor named.
const dirNoEntry = int32(-1)

// homeServed is the home-reply code of a block whose bytes follow the codes.
const homeServed = int32(-2)

// packRunAux encodes a MsgGetRun or MsgRunData Aux: a block count in the low
// 32 bits and a per-block bitmap (bit i = block start+i) in the high 32 —
// the wanted blocks of a request, the blocks served as master copies in a
// reply.
func packRunAux(count int, bitmap uint32) int64 {
	return int64(uint32(count)) | int64(bitmap)<<32
}

// unpackRunAux decodes packRunAux.
func unpackRunAux(aux int64) (count int, bitmap uint32) {
	return int(uint32(aux)), uint32(uint64(aux) >> 32)
}

// appendHomeCodes encodes the head of a home reply: one 4-byte big-endian
// code per block of the span — a holder's node ID, homeServed, or
// dirNoEntry.
func appendHomeCodes(buf []byte, codes []int32) []byte {
	for _, c := range codes {
		buf = binary.BigEndian.AppendUint32(buf, uint32(c))
	}
	return buf
}

// decodeHomeReply checks a reply to the bitmap MsgGetRun s, given its code
// head and the length of the served bytes that followed it, and returns the
// codes: only wanted blocks are served (each blockLen long) or named (any
// node but self: a joiner the home knows before the requester does fails
// its fetch into a race miss). On any inconsistency the requester installs
// nothing and fetches per block.
func decodeHomeReply(aux int64, head []byte, body int, s span, blockLen func(int32) int, self int32) ([]int32, error) {
	if len(head) != 4*s.count {
		return nil, fmt.Errorf("middleware: %d-byte home reply head is not %d codes", len(head), s.count)
	}
	served, masters := unpackRunAux(aux)
	codes := make([]int32, s.count)
	var servedBits uint32
	want := 0
	for i := range codes {
		c, idx, bit := int32(binary.BigEndian.Uint32(head[4*i:])), s.first+int32(i), uint32(1)<<uint(i)
		if c != dirNoEntry && (s.wanted&bit == 0 || c == homeServed && blockLen(idx) < 0 ||
			c != homeServed && (c < 0 || c == self)) {
			return nil, fmt.Errorf("middleware: home reply code %d for block %d", c, idx)
		}
		if c == homeServed {
			servedBits |= bit
			want += blockLen(idx)
		}
		codes[i] = c
	}
	if body != want || bits.OnesCount32(servedBits) != served || masters&^servedBits != 0 {
		return nil, fmt.Errorf("middleware: home reply of %d bytes serving %d (masters %#x) disagrees with its codes", body, served, masters)
	}
	return codes, nil
}

// maxInvalBatch bounds one MsgInvalidateN window (a 4 KB record payload;
// big enough to drain a deep backlog in a few frames, small enough that one
// frame never monopolizes a connection).
const maxInvalBatch = 512

// appendInvalPayload encodes an invalidation batch: the first record's
// sequence number, then one 8-byte block ID per record (sequences are
// consecutive from firstSeq).
func appendInvalPayload(buf []byte, firstSeq uint64, recs []block.ID) []byte {
	buf = binary.BigEndian.AppendUint64(buf, firstSeq)
	for _, id := range recs {
		buf = binary.BigEndian.AppendUint32(buf, uint32(id.File))
		buf = binary.BigEndian.AppendUint32(buf, uint32(id.Idx))
	}
	return buf
}

// decodeInvalPayload decodes an appendInvalPayload buffer, appending the
// block IDs to out (reused when capacity allows). Ragged or oversized
// payloads are protocol errors.
func decodeInvalPayload(p []byte, out []block.ID) (uint64, []block.ID, error) {
	if len(p) < 8 || (len(p)-8)%8 != 0 {
		return 0, nil, fmt.Errorf("middleware: ragged %d-byte invalidation payload", len(p))
	}
	n := (len(p) - 8) / 8
	if n > maxInvalBatch {
		return 0, nil, fmt.Errorf("middleware: invalidation batch of %d exceeds limit %d", n, maxInvalBatch)
	}
	firstSeq := binary.BigEndian.Uint64(p)
	out = out[:0]
	for i := 0; i < n; i++ {
		out = append(out, block.ID{
			File: block.FileID(binary.BigEndian.Uint32(p[8+8*i:])),
			Idx:  int32(binary.BigEndian.Uint32(p[12+8*i:])),
		})
	}
	return firstSeq, out, nil
}

// Flag bits for Frame.Flags.
const (
	// FlagMaster marks block data as the master copy / requests a master.
	FlagMaster uint8 = 1 << iota
	// FlagNotFound, on a MsgErr reply, marks the failure as "file unknown
	// to the cluster" so clients can classify it (ErrUnknownFile) instead
	// of treating every remote error alike.
	FlagNotFound
)

// flagTruncated, on a MsgInvalidateN, marks a window that does not continue
// the receiver's applied mark: the records between them fell off the
// origin's history or belong to an earlier bus on that slot, so the
// receiver flushes its whole cache before applying the window.
const flagTruncated uint8 = 1 << 3

// noAge is the OldestAge piggyback value for an empty cache or a client.
const noAge = math.MaxInt64

// Frame is one protocol message.
type Frame struct {
	Type  MsgType
	Flags uint8
	// Req correlates responses to requests on a multiplexed connection.
	Req uint32
	// Sender is the node ID of the sender (-1 for clients).
	Sender int32
	// OldestAge piggybacks the sender's oldest cached block age in unix
	// nanoseconds (math.MaxInt64 when its cache is empty or it is a client).
	OldestAge int64
	// File and Idx identify the block (or file, with Idx unused).
	File block.FileID
	Idx  int32
	// Aux carries a message-specific integer (directory node, block age...).
	Aux int64
	// Payload is the block/file content or error text. For frames decoded
	// from the wire it is backed by a pooled buffer, unless the round trip
	// asked for its reply otherwise (replyInto): use TakePayload to keep
	// the bytes past releaseFrame.
	Payload []byte
	// Segs are extra payload segments written to the wire after Payload,
	// in order. The wire format is unchanged — the receiver sees one
	// contiguous payload of length len(Payload)+Σlen(Segs[i]) — but the
	// sender never concatenates them: the writer hands header + Payload +
	// every segment to one writev. Serving paths point Segs at pinned
	// store buffers (see bufs), so a run reply ships N cached blocks with
	// zero copies. Outgoing frames only; the decoder produces a contiguous
	// Payload, or per-block bufs for a run reply received intoRun.
	Segs [][]byte

	// pbuf, when non-nil, is the pooled buffer backing Payload; it returns
	// to its size-class pool on releaseFrame.
	pbuf *[]byte
	// bufs are payload references pinned to this frame. On an outgoing
	// frame Payload or Segs alias their bytes; releaseFrame drops them after
	// the socket write, which is what keeps store eviction from recycling
	// bytes under an in-flight reply. On a run reply received as
	// replyInto's intoRun, they are the served blocks, one reference each,
	// in index order.
	bufs []*payloadBuf
	// bufArr backs bufs allocation-free for serves of one or two blocks.
	bufArr [2]*payloadBuf
	// into, on a request frame, says where its reply's payload lands (see
	// replyInto); the conn records it with the round trip.
	into replyInto
}

// payloadLen is the total payload length on the wire: Payload plus every
// scatter-gather segment.
func (f *Frame) payloadLen() int {
	n := len(f.Payload)
	for _, s := range f.Segs {
		n += len(s)
	}
	return n
}

// header layout: type(1) flags(1) req(4) sender(4) oldest(8) file(4) idx(4)
// aux(8) plen(4) = 38 bytes; the payload follows.
const headerLen = 38

// maxPayload bounds a frame payload (64 MB covers any file in the traces),
// on both the write and the read side.
const maxPayload = 64 << 20

// typeCarriesPayload reports whether t is allowed a non-empty payload. The
// decoder rejects payloads on the other types, so a malformed or hostile
// peer cannot force large allocations through, say, a MsgGetRun.
func typeCarriesPayload(t MsgType) bool {
	switch t {
	case MsgFileData, MsgForward, MsgWriteBlock, MsgPutBlock,
		MsgErr, MsgStatsReply, MsgTraceReply, MsgRunData, MsgInvalidateN,
		MsgViewUpdate, MsgJoin, MsgViewReply:
		return true
	}
	return false
}

// --- frame and payload pooling ---

var framePool = sync.Pool{New: func() any { return new(Frame) }}

// getFrame returns a zeroed frame from the pool. Pair with releaseFrame.
func getFrame() *Frame { return framePool.Get().(*Frame) }

// releaseFrame recycles a frame and, if its payload is pool-backed, the
// payload buffer; payload references pinned to the frame are released. The
// frame and any slices reaching into it (Payload, Segs) must not be used
// afterwards.
func releaseFrame(f *Frame) {
	if f == nil {
		return
	}
	for _, b := range f.bufs {
		b.release()
	}
	pb := f.pbuf
	*f = Frame{}
	framePool.Put(f)
	if pb != nil {
		putPayload(pb)
	}
}

// TakePayload transfers ownership of the payload to the caller: the bytes
// stay valid after releaseFrame and are never recycled underneath the
// caller. Use it wherever received data is retained (cache insert, return
// to the application).
func (f *Frame) TakePayload() []byte {
	p := f.Payload
	f.Payload = nil
	f.pbuf = nil
	return p
}

// TakePayloadBuf transfers ownership of the payload to the caller as a
// class-backed refcounted buffer (one reference). Unlike TakePayload, the
// pooled backing travels with the bytes: when the last reference drops, the
// buffer returns to its size-class pool instead of to the garbage
// collector. A FileReader keeps its head this way.
func (f *Frame) TakePayloadBuf() *payloadBuf {
	pb := payloadBufPool.Get().(*payloadBuf)
	pb.data, pb.back = f.Payload, f.pbuf
	pb.refs.Store(1)
	f.Payload, f.pbuf = nil, nil
	return pb
}

// payloadClassSizes are the pooled payload buffer capacities. 8 KB matches
// the default block geometry; the larger classes serve whole-file and
// range responses.
var payloadClassSizes = [...]int{
	1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10,
	32 << 10, 64 << 10, 256 << 10, 1 << 20,
}

var payloadPools [len(payloadClassSizes)]sync.Pool

// getPayload returns a pooled buffer of length n (capacity rounded up to
// the size class). Payloads above the largest class are plain allocations.
func getPayload(n int) *[]byte {
	for i, s := range payloadClassSizes {
		if n <= s {
			if v := payloadPools[i].Get(); v != nil {
				pb := v.(*[]byte)
				*pb = (*pb)[:n]
				return pb
			}
			b := make([]byte, n, s)
			return &b
		}
	}
	b := make([]byte, n)
	return &b
}

// putPayload recycles a buffer obtained from getPayload. Buffers whose
// capacity is not an exact class size (oversize allocations, taken-and-
// returned foreign slices) are left to the garbage collector.
func putPayload(pb *[]byte) {
	c := cap(*pb)
	for i, s := range payloadClassSizes {
		if c == s {
			*pb = (*pb)[:s]
			payloadPools[i].Put(pb)
			return
		}
	}
}

// --- encode / decode ---

// growSlice extends buf by n bytes, reallocating if needed, and returns the
// extended slice.
func growSlice(buf []byte, n int) []byte {
	if cap(buf)-len(buf) >= n {
		return buf[:len(buf)+n]
	}
	nb := make([]byte, len(buf)+n, 2*cap(buf)+n)
	copy(nb, buf)
	return nb
}

// appendHeader validates f and appends its header (not the payload) to buf. The encoded payload length covers Payload plus every
// scatter-gather segment: the receiver cannot tell (and need not care)
// whether the sender gathered the bytes or held them contiguously.
func appendHeader(buf []byte, f *Frame) ([]byte, error) {
	plen := f.payloadLen()
	if plen > maxPayload {
		return nil, fmt.Errorf("middleware: payload %d exceeds limit", plen)
	}
	if plen > 0 && !typeCarriesPayload(f.Type) {
		return nil, fmt.Errorf("middleware: frame type %d does not carry a payload", f.Type)
	}
	buf = growSlice(buf, headerLen)
	hdr := buf[len(buf)-headerLen:]
	hdr[0] = byte(f.Type)
	hdr[1] = f.Flags
	binary.BigEndian.PutUint32(hdr[2:], f.Req)
	binary.BigEndian.PutUint32(hdr[6:], uint32(f.Sender))
	binary.BigEndian.PutUint64(hdr[10:], uint64(f.OldestAge))
	binary.BigEndian.PutUint32(hdr[18:], uint32(f.File))
	binary.BigEndian.PutUint32(hdr[22:], uint32(f.Idx))
	binary.BigEndian.PutUint64(hdr[26:], uint64(f.Aux))
	binary.BigEndian.PutUint32(hdr[34:], uint32(plen))
	return buf, nil
}

// writeBufPool holds encode scratch buffers for WriteFrame. Oversized
// buffers (above the largest payload class) are not retained.
var writeBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 16<<10)
	return &b
}}

// WriteFrame encodes f to w as a single contiguous write.
func WriteFrame(w io.Writer, f *Frame) error {
	bp := writeBufPool.Get().(*[]byte)
	buf, err := appendHeader((*bp)[:0], f)
	if err != nil {
		writeBufPool.Put(bp)
		return err
	}
	buf = append(buf, f.Payload...)
	for _, s := range f.Segs {
		buf = append(buf, s...)
	}
	_, err = w.Write(buf)
	if cap(buf) <= 1<<20 {
		*bp = buf[:0]
	}
	writeBufPool.Put(bp)
	return err
}

// ReadFrame decodes one frame from r into a pooled frame. Release it with
// releaseFrame when done (TakePayload first to retain the content).
func ReadFrame(r io.Reader) (*Frame, error) {
	return readFrame(r, maxPayload)
}

// readFrame is ReadFrame with an explicit payload cap.
func readFrame(r io.Reader, limit int) (*Frame, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	f, plen, err := decodeHeader(&hdr, limit)
	if err != nil {
		return nil, err
	}
	if err := readPooled(r, f, plen); err != nil {
		releaseFrame(f)
		return nil, err
	}
	return f, nil
}

// decodeHeader decodes hdr into a pooled frame and returns the length of
// the payload that follows it on the wire, which it checks against limit
// and the frame type.
func decodeHeader(hdr *[headerLen]byte, limit int) (*Frame, int, error) {
	plen := binary.BigEndian.Uint32(hdr[34:])
	if int64(plen) > int64(limit) {
		return nil, 0, fmt.Errorf("middleware: frame payload %d exceeds limit %d", plen, limit)
	}
	t := MsgType(hdr[0])
	if plen > 0 && !typeCarriesPayload(t) {
		return nil, 0, fmt.Errorf("middleware: frame type %d carries unexpected %d-byte payload", t, plen)
	}
	f := getFrame()
	f.Type = t
	f.Flags = hdr[1]
	f.Req = binary.BigEndian.Uint32(hdr[2:])
	f.Sender = int32(binary.BigEndian.Uint32(hdr[6:]))
	f.OldestAge = int64(binary.BigEndian.Uint64(hdr[10:]))
	f.File = block.FileID(binary.BigEndian.Uint32(hdr[18:]))
	f.Idx = int32(binary.BigEndian.Uint32(hdr[22:]))
	f.Aux = int64(binary.BigEndian.Uint64(hdr[26:]))
	return f, int(plen), nil
}

// readPooled reads f's plen-byte payload from r into a pooled buffer.
func readPooled(r io.Reader, f *Frame, plen int) error {
	if plen == 0 {
		return nil
	}
	f.pbuf = getPayload(plen)
	f.Payload = *f.pbuf
	_, err := io.ReadFull(r, f.Payload)
	return err
}

// ID returns the block identifier of the frame.
func (f *Frame) ID() block.ID { return block.ID{File: f.File, Idx: f.Idx} }

// Err extracts the error of a MsgErr frame. A reply flagged FlagNotFound
// wraps ErrUnknownFile so the classification survives the wire crossing.
func (f *Frame) Err() error {
	if f.Type != MsgErr {
		return nil
	}
	if f.Flags&FlagNotFound != 0 {
		return fmt.Errorf("middleware: remote error: %s: %w", f.Payload, ErrUnknownFile)
	}
	return fmt.Errorf("middleware: remote error: %s", f.Payload)
}
