package middleware

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/block"
	"repro/internal/core"
)

// failingSource serves synthetic blocks until failAt, then errors; it counts
// every ReadBlock so tests can see how many fetches a failure cost.
type failingSource struct {
	geom   block.Geometry
	size   int64
	failAt int32
	reads  atomic.Int64
}

func (s *failingSource) FileSize(f block.FileID) (int64, error) { return s.size, nil }

func (s *failingSource) ReadBlock(f block.FileID, idx int32) ([]byte, error) {
	s.reads.Add(1)
	if idx >= s.failAt {
		return nil, fmt.Errorf("injected failure at block %d", idx)
	}
	n := int(s.size - int64(idx)*int64(s.geom.Size))
	if n > s.geom.Size {
		n = s.geom.Size
	}
	return SyntheticBlock(f, idx, n), nil
}

func (s *failingSource) WriteBlock(f block.FileID, idx int32, data []byte) error {
	return fmt.Errorf("read-only source")
}

// TestReadFileShortCircuitsAfterError: once one block of a file fails, the
// remaining window goroutines must stop issuing fetches instead of walking
// the whole file into the same error.
func TestReadFileShortCircuitsAfterError(t *testing.T) {
	geom := block.Geometry{Size: 1024, ExtentBlocks: 8}
	src := &failingSource{geom: geom, size: 64 * 1024, failAt: 2}
	n, err := Start(Config{
		ID: 0, CapacityBlocks: 256, Policy: core.PolicyMaster,
		Geometry: geom, Source: src,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.SetAddrs([]string{n.Addr()})

	if _, err := n.ReadFile(0); err == nil {
		t.Fatal("ReadFile succeeded against a failing source")
	}
	// 64 blocks total; the failure hits at block 2. Without the in-goroutine
	// error check the window walks all 64 blocks; with it, only the fetches
	// already in flight when the error lands can still issue.
	if reads := src.reads.Load(); reads >= 32 {
		t.Fatalf("%d disk reads after early failure, want the window to short-circuit (< 32)", reads)
	}
}
