package middleware

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"repro/internal/block"
)

// ErrUnknownFile marks a request for a file no source in the cluster can
// serve. Sources wrap it so serving layers can distinguish "does not exist"
// (a client error) from transport faults; the wire protocol carries the
// distinction across nodes via FlagNotFound, so errors.Is(err,
// ErrUnknownFile) holds on the client side too.
var ErrUnknownFile = errors.New("unknown file")

// IsNotFound reports whether err — local or relayed over the wire —
// identifies a file unknown to the cluster.
func IsNotFound(err error) bool { return errors.Is(err, ErrUnknownFile) }

// BlockSource is a node's backing store: the "disk" holding the files whose
// home this node is. The simulator models it; the live middleware reads it.
// Implementations must be safe for concurrent use: a node serves many
// requests at once, and one miss reads up to readWindow blocks together.
type BlockSource interface {
	// FileSize reports the size of file f, or an error if unknown.
	FileSize(f block.FileID) (int64, error)
	// ReadBlock returns the content of block (f, idx); short for the final
	// block of a file.
	ReadBlock(f block.FileID, idx int32) ([]byte, error)
	// WriteBlock persists content for block (f, idx), extending the file
	// if needed. Sources backing read-only deployments may return an error.
	WriteBlock(f block.FileID, idx int32, data []byte) error
}

// MemSource is an in-memory BlockSource with deterministic synthetic
// content, used by tests, benchmarks, and the quickstart example. Content
// is a function of (file, offset) so any node can verify integrity.
type MemSource struct {
	geom  block.Geometry
	mu    sync.RWMutex
	sizes map[block.FileID]int64
	// overrides holds blocks modified by WriteBlock.
	overrides map[block.ID][]byte
}

// NewMemSource builds a synthetic source with the given file sizes.
func NewMemSource(geom block.Geometry, sizes map[block.FileID]int64) *MemSource {
	cp := make(map[block.FileID]int64, len(sizes))
	for f, s := range sizes {
		cp[f] = s
	}
	return &MemSource{geom: geom, sizes: cp, overrides: make(map[block.ID][]byte)}
}

// FileSize implements BlockSource.
func (m *MemSource) FileSize(f block.FileID) (int64, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	size, ok := m.sizes[f]
	if !ok {
		return 0, fmt.Errorf("middleware: %w %d", ErrUnknownFile, f)
	}
	return size, nil
}

// Files implements FileLister: the file IDs this source can serve.
func (m *MemSource) Files() []block.FileID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]block.FileID, 0, len(m.sizes))
	for f := range m.sizes {
		out = append(out, f)
	}
	return out
}

// The LCG behind SyntheticBlock, and the same generator stepped eight
// states at a time: state → lcgMul8*state + lcgAdd8.
const (
	lcgMul = 6364136223846793005
	lcgAdd = 1442695040888963407
)

var lcgMul8, lcgAdd8 = func() (uint64, uint64) {
	m, a := uint64(1), uint64(0)
	for i := 0; i < 8; i++ {
		m, a = m*lcgMul, a*lcgMul+lcgAdd
	}
	return m, a
}()

// SyntheticBlock is the deterministic content of block (f, idx) of the
// given length: a keyed byte pattern any reader can recompute. Byte i is the
// top byte of state i+1 of the LCG seeded with the 64-bit FNV-1a hash of
// "f:idx". Eight lanes each hold every eighth state and jump eight states a
// step, so the bytes come without one serial multiply each.
func SyntheticBlock(f block.FileID, idx int32, n int) []byte {
	var key [24]byte
	k := strconv.AppendInt(key[:0], int64(f), 10)
	k = append(k, ':')
	k = strconv.AppendInt(k, int64(idx), 10)
	state := uint64(14695981039346656037) // FNV-1a offset basis
	for _, c := range k {
		state ^= uint64(c)
		state *= 1099511628211 // FNV-1a prime
	}
	s0 := state*lcgMul + lcgAdd
	s1 := s0*lcgMul + lcgAdd
	s2 := s1*lcgMul + lcgAdd
	s3 := s2*lcgMul + lcgAdd
	s4 := s3*lcgMul + lcgAdd
	s5 := s4*lcgMul + lcgAdd
	s6 := s5*lcgMul + lcgAdd
	s7 := s6*lcgMul + lcgAdd
	m, a := lcgMul8, lcgAdd8
	out := make([]byte, n)
	i := 0
	for ; i+8 <= n; i += 8 {
		o := out[i : i+8 : i+8]
		o[0], o[1], o[2], o[3] = byte(s0>>56), byte(s1>>56), byte(s2>>56), byte(s3>>56)
		o[4], o[5], o[6], o[7] = byte(s4>>56), byte(s5>>56), byte(s6>>56), byte(s7>>56)
		s0, s1, s2, s3 = s0*m+a, s1*m+a, s2*m+a, s3*m+a
		s4, s5, s6, s7 = s4*m+a, s5*m+a, s6*m+a, s7*m+a
	}
	tail := [8]uint64{s0, s1, s2, s3, s4, s5, s6, s7}
	for j := 0; i < n; i, j = i+1, j+1 {
		out[i] = byte(tail[j] >> 56)
	}
	return out
}

// ReadBlock implements BlockSource.
func (m *MemSource) ReadBlock(f block.FileID, idx int32) ([]byte, error) {
	size, err := m.FileSize(f)
	if err != nil {
		return nil, err
	}
	n := blockLen(m.geom, size, idx)
	if n < 0 {
		return nil, fmt.Errorf("middleware: block %d:%d out of range", f, idx)
	}
	m.mu.RLock()
	ov, ok := m.overrides[block.ID{File: f, Idx: idx}]
	m.mu.RUnlock()
	if ok {
		out := make([]byte, len(ov))
		copy(out, ov)
		return out, nil
	}
	return SyntheticBlock(f, idx, n), nil
}

// WriteBlock implements BlockSource.
func (m *MemSource) WriteBlock(f block.FileID, idx int32, data []byte) error {
	if _, err := m.FileSize(f); err != nil {
		return err
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	m.mu.Lock()
	m.overrides[block.ID{File: f, Idx: idx}] = cp
	m.mu.Unlock()
	return nil
}

// blockLen reports the length of block idx of a file of size bytes, or -1
// if out of range.
func blockLen(geom block.Geometry, size int64, idx int32) int {
	if idx < 0 || idx >= geom.Count(size) {
		return -1
	}
	start := int64(idx) * int64(geom.Size)
	n := size - start
	if n > int64(geom.Size) {
		n = int64(geom.Size)
	}
	if n < 0 {
		n = 0
	}
	return int(n)
}

// DirSource serves files from a directory on the local filesystem: file f
// is <dir>/<name[f]>. It is the deployment-shaped source for the examples.
type DirSource struct {
	geom  block.Geometry
	dir   string
	mu    sync.RWMutex
	names map[block.FileID]string
}

// NewDirSource builds a filesystem-backed source. names maps file IDs to
// paths relative to dir.
func NewDirSource(geom block.Geometry, dir string, names map[block.FileID]string) *DirSource {
	cp := make(map[block.FileID]string, len(names))
	for f, n := range names {
		cp[f] = n
	}
	return &DirSource{geom: geom, dir: dir, names: cp}
}

func (d *DirSource) path(f block.FileID) (string, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	name, ok := d.names[f]
	if !ok {
		return "", fmt.Errorf("middleware: %w %d", ErrUnknownFile, f)
	}
	return filepath.Join(d.dir, name), nil
}

// Files implements FileLister: the file IDs this source can serve.
func (d *DirSource) Files() []block.FileID {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]block.FileID, 0, len(d.names))
	for f := range d.names {
		out = append(out, f)
	}
	return out
}

// FileSize implements BlockSource.
func (d *DirSource) FileSize(f block.FileID) (int64, error) {
	p, err := d.path(f)
	if err != nil {
		return 0, err
	}
	fi, err := os.Stat(p)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// ReadBlock implements BlockSource.
func (d *DirSource) ReadBlock(f block.FileID, idx int32) ([]byte, error) {
	p, err := d.path(f)
	if err != nil {
		return nil, err
	}
	size, err := d.FileSize(f)
	if err != nil {
		return nil, err
	}
	n := blockLen(d.geom, size, idx)
	if n < 0 {
		return nil, fmt.Errorf("middleware: block %d:%d out of range", f, idx)
	}
	fh, err := os.Open(p)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	buf := make([]byte, n)
	if _, err := fh.ReadAt(buf, int64(idx)*int64(d.geom.Size)); err != nil {
		return nil, err
	}
	return buf, nil
}

// WriteBlock implements BlockSource.
func (d *DirSource) WriteBlock(f block.FileID, idx int32, data []byte) error {
	p, err := d.path(f)
	if err != nil {
		return err
	}
	fh, err := os.OpenFile(p, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	defer fh.Close()
	_, err = fh.WriteAt(data, int64(idx)*int64(d.geom.Size))
	return err
}
