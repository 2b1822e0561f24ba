package middleware

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"testing"

	"repro/internal/block"
)

// plenOff is where the 4-byte payload length sits in the frame header.
const plenOff = headerLen - 4

// FuzzReadFrame hardens the wire decoder against malformed input: it must
// either return an error or a frame that re-encodes losslessly — never
// panic or over-allocate.
func FuzzReadFrame(f *testing.F) {
	// Seed corpus: valid frames of each shape.
	seed := []*Frame{
		{Type: MsgAck},
		{Type: MsgGetRun, Flags: FlagMaster, File: 1, Idx: 2, Aux: packRunAux(1, 0)},
		{Type: MsgRunData, Aux: packRunAux(1, 1), Payload: []byte("payload")},
		{Type: MsgForward, Aux: 99, Payload: []byte("x")},
	}
	for _, fr := range seed {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, fr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00, 0x01})

	// Adversarial seeds: the truncated and lying streams a crashed or
	// fault-injected peer produces (see FaultPlan's mid-frame crash).
	var full bytes.Buffer
	if err := WriteFrame(&full, &Frame{Type: MsgRunData, File: 7, Idx: 3, Aux: packRunAux(1, 0), Payload: bytes.Repeat([]byte{0xA5}, 64)}); err != nil {
		f.Fatal(err)
	}
	enc := full.Bytes()
	f.Add(enc[:10])          // cut mid-header
	f.Add(enc[:headerLen-1]) // one byte short of a full header
	f.Add(enc[:headerLen])   // header promises a payload that never arrives

	huge := append([]byte(nil), enc[:headerLen]...)
	binary.BigEndian.PutUint32(huge[plenOff:], 0xFFFFFFFF) // plen far past any limit
	f.Add(huge)

	ackPayload := append([]byte(nil), enc...)
	ackPayload[0] = byte(MsgAck) // payload on a payload-less type
	f.Add(ackPayload)

	// Run fast-path seeds: a valid MsgRunData (two concatenated blocks with
	// master flags in Aux), then truncated and size-lying variants — the
	// shapes a crashed peer or corrupted length field produces mid-run.
	var runBuf bytes.Buffer
	if err := WriteFrame(&runBuf, &Frame{
		Type: MsgRunData, Flags: FlagMaster, File: 5, Idx: 2,
		Aux:     packRunAux(2, 0b11),
		Payload: bytes.Repeat([]byte{0x3C}, 128),
	}); err != nil {
		f.Fatal(err)
	}
	renc := runBuf.Bytes()
	f.Add(renc)
	f.Add(renc[:len(renc)-64]) // truncated: promises 128 payload bytes, carries 64
	f.Add(renc[:headerLen])    // header only: the whole run payload never arrives
	runHuge := append([]byte(nil), renc...)
	binary.BigEndian.PutUint32(runHuge[plenOff:], 1<<30) // oversized: plen lies far past the limit
	f.Add(runHuge)
	runShort := append([]byte(nil), renc...)
	binary.BigEndian.PutUint32(runShort[plenOff:], 16) // plen shorter than the carried run
	f.Add(runShort)

	// Home replies: codes that name, serve and skip, then the served block,
	// and the same reply cut inside its codes.
	var homeBuf bytes.Buffer
	if err := WriteFrame(&homeBuf, &Frame{
		Type: MsgRunData, File: 5, Aux: packRunAux(1, 1),
		Payload: append(appendHomeCodes(nil, []int32{homeServed, 2, dirNoEntry, 3}), 0x3C, 0x3C),
	}); err != nil {
		f.Fatal(err)
	}
	henc := homeBuf.Bytes()
	f.Add(henc)
	f.Add(henc[:len(henc)-4]) // cut inside the codes

	// Invalidation-bus frames: a valid batched invalidation window and a
	// truncated one, then the ragged and oversized payloads a corrupted
	// stream produces (decodeInvalPayload must reject, never panic).
	var invBuf bytes.Buffer
	if err := WriteFrame(&invBuf, &Frame{
		Type: MsgInvalidateN, Aux: 44,
		Payload: appendInvalPayload(nil, 42, []block.ID{{File: 1, Idx: 0}, {File: 2, Idx: 3}}),
	}); err != nil {
		f.Fatal(err)
	}
	ienc := invBuf.Bytes()
	f.Add(ienc)
	f.Add(ienc[:len(ienc)-3]) // ragged record payload (not 8 + k*8 bytes)
	f.Add(ienc[:headerLen+4]) // cut inside the firstSeq prefix
	var truncBuf bytes.Buffer
	if err := WriteFrame(&truncBuf, &Frame{
		Type: MsgInvalidateN, Flags: flagTruncated, Aux: 7,
		Payload: appendInvalPayload(nil, 7, []block.ID{{File: 9, Idx: 1}}),
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(truncBuf.Bytes())
	invHuge := append([]byte(nil), ienc[:headerLen]...)
	binary.BigEndian.PutUint32(invHuge[plenOff:], uint32(8+(maxInvalBatch+1)*8)) // batch over the limit
	f.Add(invHuge)

	// Membership frames: heartbeat pings, the join/drain control messages,
	// and view transfers carrying an encoded member list — plus the
	// truncated, state-corrupted, and trailing-garbage view payloads
	// decodeView must reject without panicking.
	members := []memberInfo{
		{Addr: "127.0.0.1:7001", State: stateAlive},
		{Addr: "127.0.0.1:7002", State: stateDraining},
		{Addr: "", State: stateDead},
	}
	viewPayload := appendView(nil, newMemberView(9, members))
	for _, fr := range []*Frame{
		{Type: MsgPing, Aux: 9},
		{Type: MsgView},
		{Type: MsgViewReply, Aux: 9, Payload: viewPayload},
		{Type: MsgViewUpdate, Payload: viewPayload},
		{Type: MsgJoin, Aux: 3, Payload: []byte("127.0.0.1:7003")},
		{Type: MsgDrain, Aux: 2, Flags: 1},
	} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, fr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	var viewBuf bytes.Buffer
	if err := WriteFrame(&viewBuf, &Frame{Type: MsgViewUpdate, Payload: viewPayload}); err != nil {
		f.Fatal(err)
	}
	venc := viewBuf.Bytes()
	f.Add(venc[:len(venc)-1]) // view cut inside the last member's address
	badState := append([]byte(nil), venc...)
	badState[headerLen+12] = 99 // first member's state byte out of range
	f.Add(badState)
	viewTrailing := append([]byte(nil), venc...)
	viewTrailing = append(viewTrailing, 0xEE) // trailing garbage after the member list
	binary.BigEndian.PutUint32(viewTrailing[plenOff:], uint32(len(viewPayload)+1))
	f.Add(viewTrailing)

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, fr); err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v", err)
		}
		fr2, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		if fr2.Type != fr.Type || fr2.Flags != fr.Flags || fr2.Req != fr.Req ||
			fr2.Sender != fr.Sender || fr2.OldestAge != fr.OldestAge ||
			fr2.File != fr.File || fr2.Idx != fr.Idx || fr2.Aux != fr.Aux ||
			!bytes.Equal(fr2.Payload, fr.Payload) {
			t.Fatal("round trip not lossless")
		}
	})
}

// FuzzDecodeView hardens the membership-view decoder, which every node runs
// on payloads pushed by peers: it must reject or decode, never panic, and a
// decoded view re-encodes to bytes that decode to the same view.
func FuzzDecodeView(f *testing.F) {
	valid := appendView(nil, newMemberView(9, []memberInfo{
		{Addr: "127.0.0.1:7001", State: stateAlive},
		{Addr: "127.0.0.1:7002", State: stateDraining},
		{Addr: "", State: stateDead},
	}))
	f.Add(valid)
	f.Add(appendView(nil, newMemberView(1, nil))) // the bare prefix: no members, no ring
	f.Add([]byte{})
	f.Add(valid[:11])           // shorter than the fixed prefix
	f.Add(valid[:len(valid)-1]) // cut inside the last member
	f.Add(valid[:19])           // cut inside the first member's address
	badState := append([]byte(nil), valid...)
	badState[12] = 99 // first member's state byte out of range
	f.Add(badState)
	oversized := append([]byte(nil), valid[:12]...)
	binary.BigEndian.PutUint32(oversized[8:], maxViewMembers+1) // count past the limit
	f.Add(oversized)
	lyingCount := append([]byte(nil), valid...)
	binary.BigEndian.PutUint32(lyingCount[8:], 1000) // count far past the members carried
	f.Add(lyingCount)
	f.Add(append(append([]byte(nil), valid...), 0xEE)) // trailing byte

	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := decodeView(data)
		if err != nil {
			return
		}
		enc := appendView(nil, v)
		v2, err := decodeView(enc)
		if err != nil {
			t.Fatalf("re-encoded view failed to decode: %v", err)
		}
		if v2.epoch != v.epoch || len(v2.members) != len(v.members) || len(v2.ring) != len(v.ring) {
			t.Fatal("view round trip not lossless")
		}
		for i := range v.members {
			if v2.members[i] != v.members[i] {
				t.Fatalf("member %d: %+v != %+v", i, v2.members[i], v.members[i])
			}
		}
		if !bytes.Equal(appendView(nil, v2), enc) {
			t.Fatal("view encoding not stable")
		}
	})
}

// FuzzDecodeInvalPayload hardens the invalidation-batch decoder, which
// every node runs on each MsgInvalidateN window a peer sends, truncated or
// not: it never panics, never hands the bus more than maxInvalBatch records,
// and a batch it accepts re-encodes to the same bytes.
func FuzzDecodeInvalPayload(f *testing.F) {
	valid := appendInvalPayload(nil, 42, []block.ID{{File: 1, Idx: 0}, {File: 2, Idx: 3}})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                // ragged: not 8 + k*8 bytes
	f.Add(valid[:5])                           // cut inside firstSeq
	f.Add(make([]byte, 8+8*(maxInvalBatch+1))) // one record over the limit

	f.Fuzz(func(t *testing.T, data []byte) {
		firstSeq, recs, err := decodeInvalPayload(data, nil)
		if err != nil {
			if recs != nil {
				t.Fatal("error with a non-nil result")
			}
			return
		}
		if len(recs) > maxInvalBatch {
			t.Fatalf("decoded %d records, limit %d", len(recs), maxInvalBatch)
		}
		if !bytes.Equal(appendInvalPayload(nil, firstSeq, recs), data) {
			t.Fatal("invalidation payload round trip not lossless")
		}
	})
}

// FuzzDecodeHomeReply hardens the home-reply decoder, which an entry node
// runs on every reply to a home miss, before it installs a byte of it. The
// span is count%maxRunBlocks+1 blocks of 3 bytes, asked for by node 0. A
// reply it accepts is exactly consistent — served codes match the served
// count, the bytes match the served blocks, every named holder is another
// node and every served or named block was wanted — and one it refuses
// yields nothing, so the requester falls back per block and installs
// nothing. A holder outside the requester's view is accepted: the fetch
// from it fails into the per-block race-miss path.
func FuzzDecodeHomeReply(f *testing.F) {
	valid := append(appendHomeCodes(nil, []int32{homeServed, 2, dirNoEntry, homeServed}), "abcdef"...)
	f.Add(packRunAux(2, 0b1000), uint8(3), uint32(0b1011), valid)
	f.Add(packRunAux(2, 0), uint8(3), uint32(0b1011), valid[:13])                                                                                 // ragged code tail
	f.Add(packRunAux(9, 0), uint8(3), uint32(0b1011), valid)                                                                                      // served count over the request
	f.Add(packRunAux(2, 0), uint8(3), uint32(0b1011), append(appendHomeCodes(nil, []int32{homeServed, -7, dirNoEntry, homeServed}), "abcdef"...)) // holder out of range
	f.Add(packRunAux(2, 0), uint8(3), uint32(0b1011), append(appendHomeCodes(nil, []int32{homeServed, 7, dirNoEntry, homeServed}), "abcdef"...))  // holder beyond the view
	f.Add(packRunAux(2, 0), uint8(3), uint32(0b1011), append(valid, 'g'))                                                                         // payload longer than the codes promise
	f.Add(packRunAux(2, 0b0100), uint8(3), uint32(0b1011), valid)                                                                                 // master flag on an unserved block
	f.Add(packRunAux(0, 0), uint8(0), uint32(1), []byte{})                                                                                        // no codes at all
	f.Add(packRunAux(1, 1), uint8(0), uint32(1), append(appendHomeCodes(nil, []int32{homeServed}), "xyz"...))

	f.Fuzz(func(t *testing.T, aux int64, count uint8, wanted uint32, p []byte) {
		s := span{count: int(count)%maxRunBlocks + 1}
		s.wanted = wanted & uint32(1<<uint(s.count)-1)
		head, body := splitHomeReply(p, s)
		codes, err := decodeHomeReply(aux, head, body, s, func(int32) int { return 3 }, 0)
		if err != nil {
			if codes != nil {
				t.Fatal("a refused reply yielded codes")
			}
			return
		}
		served, masters := unpackRunAux(aux)
		var servedBits uint32
		for i, c := range codes {
			bit := uint32(1) << uint(i)
			if c != dirNoEntry && s.wanted&bit == 0 {
				t.Fatalf("code %d accepted for unwanted block %d", c, i)
			}
			switch {
			case c == homeServed:
				servedBits |= bit
			case c == 0 || c < dirNoEntry:
				t.Fatalf("accepted code %d", c)
			}
		}
		if n := bits.OnesCount32(servedBits); n != served || masters&^servedBits != 0 || body != 3*n {
			t.Fatalf("accepted %d served (masters %#x) over codes %#x and %d bytes", served, masters, servedBits, body)
		}
	})
}
