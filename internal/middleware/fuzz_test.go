package middleware

import (
	"bytes"
	"encoding/binary"
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

	// Batched directory lookups: a valid index window, then a ragged one.
	var dirBuf bytes.Buffer
	if err := WriteFrame(&dirBuf, &Frame{
		Type: MsgDirLookupN, File: 5,
		Payload: appendIdxPayload(nil, []int32{0, 1, 2, 3}),
	}); err != nil {
		f.Fatal(err)
	}
	denc := dirBuf.Bytes()
	f.Add(denc)
	f.Add(denc[:len(denc)-2]) // ragged index payload (not a multiple of 4)

	// Invalidation-bus frames: a valid batched invalidation window and a
	// catch-up reply, then the ragged and oversized payloads a corrupted
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
	var sinceBuf bytes.Buffer
	if err := WriteFrame(&sinceBuf, &Frame{
		Type: MsgInvalSinceReply, Flags: 1, Aux: 7,
		Payload: appendInvalPayload(nil, 7, []block.ID{{File: 9, Idx: 1}}),
	}); err != nil {
		f.Fatal(err)
	}
	senc := sinceBuf.Bytes()
	f.Add(senc)
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
// every node runs on each MsgInvalidateN and MsgInvalSinceReply a peer
// sends: it never panics, never hands the bus more than maxInvalBatch
// records, and a batch it accepts re-encodes to the same bytes.
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

// FuzzDecodeIdxPayload hardens the batched-directory index decoder, which a
// file's home runs on every MsgDirLookupN/MsgDirUpdateN: it never panics and
// never hands the directory more than maxDirBatch indices.
func FuzzDecodeIdxPayload(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendIdxPayload(nil, []int32{0, 1, 2, 3}))
	f.Add(appendIdxPayload(nil, []int32{-1, 1 << 30}))
	f.Add([]byte{0, 0, 0})          // ragged: shorter than one index
	f.Add([]byte{0, 0, 0, 1, 0, 2}) // ragged tail
	f.Add(make([]byte, 4*maxDirBatch))
	f.Add(make([]byte, 4*(maxDirBatch+1))) // one index over the limit
	f.Add(make([]byte, 4*300))             // the 300-block window of TestLargeFileStaysCooperative

	f.Fuzz(func(t *testing.T, data []byte) {
		idxs, err := decodeIdxPayload(data, nil)
		if err != nil {
			if idxs != nil {
				t.Fatal("error with a non-nil result")
			}
			return
		}
		if len(idxs) > maxDirBatch {
			t.Fatalf("decoded %d indices, limit %d", len(idxs), maxDirBatch)
		}
		if !bytes.Equal(appendIdxPayload(nil, idxs), data) {
			t.Fatal("index payload round trip not lossless")
		}
	})
}
