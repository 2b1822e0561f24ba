package middleware

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/block"
)

// TestSoakConcurrentReadWrite hammers a small cluster with concurrent
// readers and writers under memory pressure and verifies the coherence
// contract: every read of a block observes either the synthetic original
// or a value some writer actually wrote (writers tag blocks with their
// identity, so torn or stale-after-invalidate values are detectable).
func TestSoakConcurrentReadWrite(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	const (
		nFiles   = 8
		fileSize = 4 * 1024 // 4 blocks of 1 KB
		workers  = 6
		opsEach  = 60
	)
	sizes := map[block.FileID]int64{}
	for f := 0; f < nFiles; f++ {
		sizes[block.FileID(f)] = fileSize
	}
	// Small caches force constant eviction/forwarding during the soak.
	_, client := startCluster(t, 3, 16, sizes, nil)

	// validBlock reports whether data is a legal value for the block:
	// the synthetic original or a writer-tagged pattern.
	validBlock := func(f block.FileID, idx int32, data []byte) bool {
		if bytes.Equal(data, SyntheticBlock(f, idx, len(data))) {
			return true
		}
		if len(data) == 0 {
			return false
		}
		tag := data[0]
		for _, b := range data {
			if b != tag {
				return false // torn write
			}
		}
		return tag < workers
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			for op := 0; op < opsEach; op++ {
				f := block.FileID(rng.Intn(nFiles))
				if rng.Intn(3) == 0 {
					// Write a tagged block.
					idx := int32(rng.Intn(4))
					data := bytes.Repeat([]byte{byte(w)}, 1024)
					if err := client.Write(f, idx, data); err != nil {
						errs <- fmt.Errorf("worker %d write: %w", w, err)
						return
					}
					continue
				}
				data, err := client.Read(f)
				if err != nil {
					errs <- fmt.Errorf("worker %d read: %w", w, err)
					return
				}
				if len(data) != fileSize {
					errs <- fmt.Errorf("worker %d: file %d is %d bytes", w, f, len(data))
					return
				}
				for idx := int32(0); idx < 4; idx++ {
					blk := data[idx*1024 : (idx+1)*1024]
					if !validBlock(f, idx, blk) {
						errs <- fmt.Errorf("worker %d: file %d block %d has invalid content", w, f, idx)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st, err := client.ClusterStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Writes == 0 || st.Invalidations == 0 {
		t.Fatalf("soak exercised no writes: %+v", st)
	}
	if st.Accesses == 0 {
		t.Fatal("soak exercised no reads")
	}
}
