package middleware

import (
	"bytes"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/block"
)

// TestSyntheticBlockGolden pins SyntheticBlock's bytes: CRCs taken from
// the one-state-per-byte generator it replaced, so every lane, the tail past
// the last whole group of eight, negative and extreme keys, and the empty
// block come out as before.
func TestSyntheticBlockGolden(t *testing.T) {
	for _, c := range []struct {
		f   block.FileID
		idx int32
		n   int
		crc uint32
	}{
		{0, 0, 0, 0x00000000},
		{0, 0, 1, 0x5ed1937e},
		{0, 0, 7, 0xbbd8dcbf},
		{1, 2, 9, 0x7ec5bd8e},
		{11, 3, 8192, 0x92548732},
		{7, 0, 1024, 0xb1c494d1},
		{-3, -1, 100, 0x5ec4599f},
		{2147483647, 2147483647, 8191, 0x6ac4d8a8},
		{-2147483648, 5, 4097, 0x4bc74789},
		{123456, 789, 65536, 0x2d86482d},
	} {
		b := SyntheticBlock(c.f, c.idx, c.n)
		if got := crc32.ChecksumIEEE(b); len(b) != c.n || got != c.crc {
			t.Errorf("SyntheticBlock(%d, %d, %d): %d bytes, CRC %#08x, want %#08x", c.f, c.idx, c.n, len(b), got, c.crc)
		}
	}
}

func TestMemSourceReadBlock(t *testing.T) {
	geom := block.Geometry{Size: 1024, ExtentBlocks: 8}
	m := NewMemSource(geom, map[block.FileID]int64{0: 2500})
	size, err := m.FileSize(0)
	if err != nil || size != 2500 {
		t.Fatalf("FileSize = %d, %v", size, err)
	}
	b0, err := m.ReadBlock(0, 0)
	if err != nil || len(b0) != 1024 {
		t.Fatalf("block 0: %d bytes, %v", len(b0), err)
	}
	b2, err := m.ReadBlock(0, 2)
	if err != nil || len(b2) != 2500-2048 {
		t.Fatalf("final block: %d bytes, %v", len(b2), err)
	}
	if _, err := m.ReadBlock(0, 3); err == nil {
		t.Fatal("out-of-range block accepted")
	}
	if _, err := m.ReadBlock(9, 0); err == nil {
		t.Fatal("unknown file accepted")
	}
}

func TestMemSourceWriteOverrides(t *testing.T) {
	geom := block.Geometry{Size: 1024, ExtentBlocks: 8}
	m := NewMemSource(geom, map[block.FileID]int64{0: 2048})
	orig, _ := m.ReadBlock(0, 1)
	newData := bytes.Repeat([]byte{9}, 1024)
	if err := m.WriteBlock(0, 1, newData); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadBlock(0, 1)
	if err != nil || !bytes.Equal(got, newData) {
		t.Fatal("override not returned")
	}
	if bytes.Equal(orig, got) {
		t.Fatal("write had no effect")
	}
	if err := m.WriteBlock(5, 0, newData); err == nil {
		t.Fatal("write to unknown file accepted")
	}
}

func TestDirSource(t *testing.T) {
	dir := t.TempDir()
	content := bytes.Repeat([]byte("abcdefgh"), 300) // 2400 bytes
	if err := os.WriteFile(filepath.Join(dir, "a.dat"), content, 0o644); err != nil {
		t.Fatal(err)
	}
	geom := block.Geometry{Size: 1024, ExtentBlocks: 8}
	d := NewDirSource(geom, dir, map[block.FileID]string{3: "a.dat"})

	size, err := d.FileSize(3)
	if err != nil || size != 2400 {
		t.Fatalf("FileSize = %d, %v", size, err)
	}
	b1, err := d.ReadBlock(3, 1)
	if err != nil || !bytes.Equal(b1, content[1024:2048]) {
		t.Fatalf("block 1 mismatch: %v", err)
	}
	last, err := d.ReadBlock(3, 2)
	if err != nil || !bytes.Equal(last, content[2048:]) {
		t.Fatalf("final short block mismatch: %v", err)
	}
	if _, err := d.ReadBlock(3, 9); err == nil {
		t.Fatal("out-of-range accepted")
	}
	if _, err := d.FileSize(0); err == nil {
		t.Fatal("unknown file accepted")
	}

	// Write-back.
	blk := bytes.Repeat([]byte{'Z'}, 1024)
	if err := d.WriteBlock(3, 0, blk); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadBlock(3, 0)
	if err != nil || !bytes.Equal(got, blk) {
		t.Fatal("write-back not visible")
	}
}

func TestBlockLen(t *testing.T) {
	geom := block.Geometry{Size: 1024, ExtentBlocks: 8}
	cases := []struct {
		size int64
		idx  int32
		want int
	}{
		{2048, 0, 1024},
		{2048, 1, 1024},
		{2048, 2, -1},
		{2500, 2, 452},
		{100, 0, 100},
		{100, -1, -1},
	}
	for _, c := range cases {
		if got := blockLen(geom, c.size, c.idx); got != c.want {
			t.Errorf("blockLen(%d, %d) = %d, want %d", c.size, c.idx, got, c.want)
		}
	}
}
