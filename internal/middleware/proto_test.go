package middleware

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/block"
)

func TestFrameRoundTrip(t *testing.T) {
	f := &Frame{
		Type:      MsgRunData,
		Flags:     FlagMaster,
		Req:       42,
		Sender:    3,
		OldestAge: 123456789,
		File:      7,
		Idx:       9,
		Aux:       -5,
		Payload:   []byte("hello blocks"),
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != f.Type || got.Flags != f.Flags || got.Req != f.Req ||
		got.Sender != f.Sender || got.OldestAge != f.OldestAge ||
		got.File != f.File || got.Idx != f.Idx || got.Aux != f.Aux ||
		!bytes.Equal(got.Payload, f.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, f)
	}
	if got.ID() != (block.ID{File: 7, Idx: 9}) {
		t.Fatalf("ID() = %v", got.ID())
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	f := func(typ uint8, flags uint8, req uint32, sender int32, age int64, file int32, idx int32, aux int64, payload []byte) bool {
		in := &Frame{
			Type: MsgType(typ), Flags: flags, Req: req, Sender: sender,
			OldestAge: age, File: block.FileID(file), Idx: idx, Aux: aux, Payload: payload,
		}
		var buf bytes.Buffer
		err := WriteFrame(&buf, in)
		if len(payload) > 0 && !typeCarriesPayload(in.Type) {
			// The codec refuses payloads on types that never carry data.
			return err != nil
		}
		if err != nil {
			return false
		}
		out, err := ReadFrame(&buf)
		if err != nil {
			return false
		}
		return out.Type == in.Type && out.Flags == in.Flags && out.Req == in.Req &&
			out.Sender == in.Sender && out.OldestAge == in.OldestAge &&
			out.File == in.File && out.Idx == in.Idx && out.Aux == in.Aux &&
			bytes.Equal(out.Payload, in.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReadFrameRejectsHugePayload(t *testing.T) {
	var buf bytes.Buffer
	f := &Frame{Type: MsgAck}
	if err := WriteFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Corrupt the payload length field to exceed the limit.
	binary.BigEndian.PutUint32(raw[plenOff:], 0xFFFFFFFF)
	if _, err := ReadFrame(bytes.NewReader(raw)); err == nil {
		t.Fatal("oversized payload length accepted")
	}
}

func TestWriteFrameRejectsHugePayload(t *testing.T) {
	f := &Frame{Type: MsgRunData, Payload: make([]byte, maxPayload+1)}
	if err := WriteFrame(&bytes.Buffer{}, f); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

func TestPackRangeBoundaries(t *testing.T) {
	const maxOff = int64(1)<<39 - 1 // 512 GB file cap: offset fits 39 value bits
	for _, off := range []int64{0, 1, int64(1) << 24, maxOff - 1, maxOff} {
		for _, n := range []int{0, 1, maxRangeLen - 1, maxRangeLen} {
			gotOff, gotN := unpackRange(packRange(off, n))
			if gotOff != off || gotN != n {
				t.Errorf("packRange(%d, %d) round-tripped to (%d, %d)", off, n, gotOff, gotN)
			}
		}
	}
}

func TestReadFrameRejectsPayloadOnBareType(t *testing.T) {
	// Encode a legitimate payload-carrying frame, then flip its type to one
	// that never carries data: the decoder must refuse the 4 KB payload
	// instead of allocating and delivering it.
	var buf bytes.Buffer
	f := &Frame{Type: MsgRunData, Payload: make([]byte, 4096)}
	if err := WriteFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[0] = byte(MsgAck)
	if _, err := ReadFrame(bytes.NewReader(raw)); err == nil {
		t.Fatal("payload on a zero-payload type accepted")
	}
}

func TestWriteFrameRejectsPayloadOnBareType(t *testing.T) {
	f := &Frame{Type: MsgPing, Payload: []byte("x")}
	if err := WriteFrame(&bytes.Buffer{}, f); err == nil {
		t.Fatal("payload on a zero-payload type accepted on encode")
	}
}

func TestReadFramePerConnPayloadLimit(t *testing.T) {
	var buf bytes.Buffer
	f := &Frame{Type: MsgRunData, Payload: make([]byte, 2048)}
	if err := WriteFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := readFrame(bytes.NewReader(raw), 1024); err == nil {
		t.Fatal("payload above the per-conn limit accepted")
	}
	got, err := readFrame(bytes.NewReader(raw), 2048)
	if err != nil {
		t.Fatalf("payload at the per-conn limit rejected: %v", err)
	}
	if len(got.Payload) != 2048 {
		t.Fatalf("payload = %d bytes", len(got.Payload))
	}
}

func TestReadFrameShortInput(t *testing.T) {
	if _, err := ReadFrame(strings.NewReader("tiny")); err == nil {
		t.Fatal("short input accepted")
	}
}

func TestErrFrame(t *testing.T) {
	f := errFrame("boom %d", 7)
	if f.Type != MsgErr {
		t.Fatal("wrong type")
	}
	if err := f.Err(); err == nil || !strings.Contains(err.Error(), "boom 7") {
		t.Fatalf("Err() = %v", err)
	}
	ok := &Frame{Type: MsgAck}
	if ok.Err() != nil {
		t.Fatal("MsgAck reported an error")
	}
}

func TestIsResponse(t *testing.T) {
	for _, typ := range []MsgType{MsgRunData, MsgFileData, MsgAck, MsgErr, MsgStatsReply} {
		if !isResponse(typ) {
			t.Errorf("type %d should be a response", typ)
		}
	}
	for _, typ := range []MsgType{MsgGetRun, MsgReadFile, MsgDirDrop, MsgForward, MsgWriteBlock, MsgInvalidateN, MsgPutBlock, MsgStats} {
		if isResponse(typ) {
			t.Errorf("type %d should be a request", typ)
		}
	}
}

func TestSyntheticBlockDeterministic(t *testing.T) {
	a := SyntheticBlock(1, 2, 100)
	b := SyntheticBlock(1, 2, 100)
	if !bytes.Equal(a, b) {
		t.Fatal("synthetic content not deterministic")
	}
	c := SyntheticBlock(1, 3, 100)
	if bytes.Equal(a, c) {
		t.Fatal("different blocks have identical content")
	}
}
