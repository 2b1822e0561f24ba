package middleware

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/block"
)

// TestStalenessBoundUnderFaults is the bus's property test: concurrent
// writers and readers over a seeded lossy fault plan. Three properties must
// hold throughout:
//
//  1. read-your-writes — a writer always reads its own latest write back
//     from its entry node, immediately;
//  2. no torn reads — every read returns either the original synthetic
//     content or exactly one writer's version, never a mix;
//  3. bounded staleness — once writes stop, every node converges to the
//     final version within the catch-up bound (delivery retries plus one
//     catch-up round trip), with the bus fully drained.
//
// The iteration count shrinks under -short; CI runs the package with -race.
func TestStalenessBoundUnderFaults(t *testing.T) {
	const k = 4
	const files = 4 // one single-block file per writer
	rounds := 12
	if testing.Short() {
		rounds = 3
	}
	sizes := map[block.FileID]int64{}
	for f := 0; f < files; f++ {
		sizes[block.FileID(f)] = 1024
	}
	plan := &FaultPlan{Seed: 99, DelayProb: 0.05, Delay: time.Millisecond, DropProb: 0.05}
	nodes, _ := startCluster(t, k, 256, sizes, func(i int, cfg *Config) {
		cfg.Fault = plan
		cfg.RPCTimeout = 250 * time.Millisecond
		cfg.Retries = 3
	})
	client := dialNodes(t, nodes, ClientConfig{RPCTimeout: 1500 * time.Millisecond, Retries: 4})

	// Prime every file onto several nodes so there are live copies to
	// invalidate.
	for f := 0; f < files; f++ {
		for e := 0; e < k; e++ {
			if _, err := client.ReadVia(e, block.FileID(f)); err != nil {
				t.Fatalf("prime read file %d via %d: %v", f, e, err)
			}
		}
	}

	version := make([]atomic.Int32, files) // latest version written per file
	var writers, readers sync.WaitGroup
	stopReaders := make(chan struct{})

	// Writers: writer w owns file w exclusively and writes versions 1..rounds
	// through entry node w%k, checking read-your-writes after each.
	for w := 0; w < files; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			id := block.ID{File: block.FileID(w), Idx: 0}
			entry := nodes[w%k]
			for v := 1; v <= rounds; v++ {
				data := bytes.Repeat([]byte{byte(v)}, 1024)
				// Announce the version before the write is issued: a reader
				// observing these bytes mid-flight must still see v ≤ vEnd.
				version[w].Store(int32(v))
				if err := entry.WriteBlock(id, data); err != nil {
					t.Errorf("writer %d version %d: %v", w, v, err)
					return
				}
				got, err := entry.GetBlock(id)
				if err != nil {
					t.Errorf("writer %d read-own-write: %v", w, err)
					return
				}
				if !bytes.Equal(got, data) {
					t.Errorf("writer %d did not read its own version %d back", w, v)
					return
				}
			}
		}(w)
	}

	// Readers: any entry node, any file; every observed block must be whole
	// (original content or one uniform version no newer than the last write).
	for r := 0; r < 2*k; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(1000 + r)))
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				f := rng.Intn(files)
				data, err := client.ReadVia(rng.Intn(k), block.FileID(f))
				vEnd := version[f].Load()
				if err != nil {
					continue // transient under the fault plan: the property is about bytes
				}
				if len(data) != 1024 {
					t.Errorf("file %d read returned %d bytes", f, len(data))
					return
				}
				if bytes.Equal(data, SyntheticBlock(block.FileID(f), 0, 1024)) {
					continue // pre-write content: stale but whole
				}
				v := data[0]
				if !bytes.Equal(data, bytes.Repeat([]byte{v}, 1024)) {
					t.Errorf("torn read of file %d: mixed versions in one block", f)
					return
				}
				if int32(v) > vEnd {
					t.Errorf("file %d read version %d, newer than last write %d", f, v, vEnd)
					return
				}
			}
		}(r)
	}

	writers.Wait() // writers done — only now is "final version" defined
	close(stopReaders)
	readers.Wait()

	// Bounded staleness: the bus drains (all live peers ack every record)
	// and every node then serves the final version of every file.
	deadline := time.Now().Add(15 * time.Second)
	for _, n := range nodes {
		if !n.FlushInval(time.Until(deadline)) {
			t.Fatal("invalidation bus never drained after writes stopped")
		}
	}
	for f := 0; f < files; f++ {
		want := bytes.Repeat([]byte{byte(rounds)}, 1024)
		id := block.ID{File: block.FileID(f), Idx: 0}
		for i, n := range nodes {
			for {
				got, err := n.GetBlock(id)
				if err == nil && bytes.Equal(got, want) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("node %d stuck stale on file %d past the staleness bound (err=%v)", i, f, err)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}
