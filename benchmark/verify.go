package main

import (
	"encoding/binary"
	"hash/crc32"

	"repro/internal/block"
	"repro/internal/middleware"
	"repro/internal/trace"
)

// oracle knows what every read must return. Pristine content is the
// source's SyntheticBlock pattern, summarised at set-up as one CRC32 per
// file and per block; written content is a self-describing payload (see
// writePayload) that names its block and version.
type oracle struct {
	sizes    []int64
	fileCRC  []uint32
	blockCRC [][]uint32
}

func newOracle(tr *trace.Trace) *oracle {
	o := &oracle{
		sizes:    make([]int64, len(tr.Files)),
		fileCRC:  make([]uint32, len(tr.Files)),
		blockCRC: make([][]uint32, len(tr.Files)),
	}
	for _, f := range tr.Files {
		n := geom.Count(f.Size)
		o.sizes[f.ID] = f.Size
		o.blockCRC[f.ID] = make([]uint32, n)
		var whole uint32
		for idx := int32(0); idx < n; idx++ {
			b := middleware.SyntheticBlock(f.ID, idx, blockLen(f.Size, idx))
			o.blockCRC[f.ID][idx] = crc32.ChecksumIEEE(b)
			whole = crc32.Update(whole, crc32.IEEETable, b)
		}
		o.fileCRC[f.ID] = whole
	}
	return o
}

// checkFile reports whether data is an acceptable content of file f: the
// right length, and every block either pristine or a well-formed payload
// for exactly that block. A torn or misplaced block fails.
func (o *oracle) checkFile(f block.FileID, data []byte) bool {
	if int64(len(data)) != o.sizes[f] {
		return false
	}
	if crc32.ChecksumIEEE(data) == o.fileCRC[f] {
		return true
	}
	for idx := range o.blockCRC[f] {
		if _, ok := o.blockVersion(f, int32(idx), data); !ok {
			return false
		}
	}
	return true
}

// blockVersion extracts block idx from a whole-file read and reports which
// version it holds: 0 for pristine content, the payload's version
// otherwise. ok is false when the block is neither.
func (o *oracle) blockVersion(f block.FileID, idx int32, file []byte) (version uint32, ok bool) {
	start := int(idx) * geom.Size
	b := file[start : start+blockLen(o.sizes[f], idx)]
	if crc32.ChecksumIEEE(b) == o.blockCRC[f][idx] {
		return 0, true
	}
	return parsePayload(block.ID{File: f, Idx: idx}, b)
}

// A written block is header | filler | crc32(header+filler):
//
//	magic u32 | file u32 | idx u32 | version u32 | filler … | crc u32
//
// The header pins the payload to one block ID and version, the filler is a
// function of the header, and the trailing checksum catches a torn block.
const (
	payloadMagic    = 0xb10cda7a
	payloadHeader   = 16
	payloadOverhead = payloadHeader + 4
)

// writePayload fills dst (the full length of the block) with the payload of
// (id, version).
func writePayload(dst []byte, id block.ID, version uint32) {
	binary.LittleEndian.PutUint32(dst[0:], payloadMagic)
	binary.LittleEndian.PutUint32(dst[4:], uint32(id.File))
	binary.LittleEndian.PutUint32(dst[8:], uint32(id.Idx))
	binary.LittleEndian.PutUint32(dst[12:], version)
	body := dst[payloadHeader : len(dst)-4]
	state := uint64(uint32(id.File))<<40 ^ uint64(uint32(id.Idx))<<20 ^ uint64(version)
	for len(body) >= 8 {
		state = state*6364136223846793005 + 1442695040888963407
		binary.LittleEndian.PutUint64(body, state)
		body = body[8:]
	}
	for i := range body {
		body[i] = byte(state >> (8 * i))
	}
	binary.LittleEndian.PutUint32(dst[len(dst)-4:], crc32.ChecksumIEEE(dst[:len(dst)-4]))
}

// parsePayload reports the version of a well-formed payload for block id.
func parsePayload(id block.ID, b []byte) (version uint32, ok bool) {
	if len(b) < payloadOverhead {
		return 0, false
	}
	if binary.LittleEndian.Uint32(b[0:]) != payloadMagic ||
		binary.LittleEndian.Uint32(b[4:]) != uint32(id.File) ||
		binary.LittleEndian.Uint32(b[8:]) != uint32(id.Idx) {
		return 0, false
	}
	if binary.LittleEndian.Uint32(b[len(b)-4:]) != crc32.ChecksumIEEE(b[:len(b)-4]) {
		return 0, false
	}
	return binary.LittleEndian.Uint32(b[12:]), true
}
