package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/middleware"
	"repro/internal/trace"
)

// The ladder serves the same warm 64 KB (8-block) file at each rung, from
// one goroutine. Adjacent differences are what each layer adds: the live
// counterpart of the paper's Figure 6(a) per-resource split.
const (
	ladderFileBytes = 64 << 10
	ladderFiles     = 16
	ladderBatches   = 5
	// ladderEntry is the node whose cache holds only one file, so that
	// alternating two files through it makes every read a full peer fetch.
	ladderEntry = 0
)

var ladderRungs = []string{"source", "store", "node_local", "node_remote", "client", "filereader", "gateway", "http"}

// rung is one step's cost per 64 KB read.
type rung struct {
	Name   string
	US     float64
	Allocs float64
}

// runLadder measures every rung as the median of ladderBatches batches of
// at least batch each. check receives the outcome of every verified read.
func runLadder(batch time.Duration, check func(error)) ([]rung, error) {
	tr := &trace.Trace{Name: "ladder"}
	for f := 0; f < ladderFiles; f++ {
		tr.Files = append(tr.Files, trace.File{ID: block.FileID(f), Size: ladderFileBytes})
	}
	oracle := newOracle(tr)
	blocks := int(geom.Count(ladderFileBytes))
	capacity := []int{blocks, capacityBlocks, capacityBlocks, capacityBlocks}
	cl, err := startCluster(tr, capacity, 0, newRecorder())
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	// Three files homed away from the small node: one target, and two to
	// alternate through the small node.
	var away []block.FileID
	for _, f := range tr.Files {
		if home, ok := cl.client.HomeOf(f.ID); ok && home != ladderEntry {
			away = append(away, f.ID)
		}
	}
	if len(away) < 3 {
		return nil, fmt.Errorf("ladder: %d of %d files homed away from node %d, need 3", len(away), ladderFiles, ladderEntry)
	}
	target, pair := away[0], away[1:3]
	home, _ := cl.client.HomeOf(target)
	for _, f := range away[:3] { // warm each at its home
		h, _ := cl.client.HomeOf(f)
		if _, err := cl.control.ReadVia(h, f); err != nil {
			return nil, fmt.Errorf("ladder: warm file %d: %w", f, err)
		}
	}

	store := middleware.NewStore(capacityBlocks, core.PolicyMaster)
	for idx := 0; idx < blocks; idx++ {
		store.Insert(block.ID{File: target, Idx: int32(idx)}, middleware.SyntheticBlock(target, int32(idx), geom.Size), true)
	}
	conn := dialHTTP(cl.httpAt)
	defer conn.Close()

	file := make([]byte, 0, ladderFileBytes)
	copyBuf := make([]byte, 32<<10)
	blockBuf := make([]byte, geom.Size)
	url := "http://" + cl.httpAt + filePath(target)
	turn := 0
	// Each step returns the bytes it read and the file they must equal.
	steps := map[string]func() ([]byte, block.FileID, error){
		"source": func() ([]byte, block.FileID, error) {
			file = file[:0]
			for idx := 0; idx < blocks; idx++ {
				b, err := cl.sources[home].MemSource.ReadBlock(target, int32(idx))
				if err != nil {
					return nil, target, err
				}
				file = append(file, b...)
			}
			return file, target, nil
		},
		"store": func() ([]byte, block.FileID, error) {
			file = file[:0]
			for idx := 0; idx < blocks; idx++ {
				n, ok := store.CopyInto(block.ID{File: target, Idx: int32(idx)}, blockBuf)
				if !ok {
					return nil, target, fmt.Errorf("store: block %d missing", idx)
				}
				file = append(file, blockBuf[:n]...)
			}
			return file, target, nil
		},
		"node_local": func() ([]byte, block.FileID, error) {
			data, err := cl.nodes[home].ReadFile(target)
			return data, target, err
		},
		"node_remote": func() ([]byte, block.FileID, error) {
			turn++
			data, err := cl.nodes[ladderEntry].ReadFile(pair[turn%2])
			return data, pair[turn%2], err
		},
		"client": func() ([]byte, block.FileID, error) {
			data, err := cl.client.ReadVia(home, target)
			return data, target, err
		},
		"filereader": func() ([]byte, block.FileID, error) {
			fr, err := cl.client.OpenVia(home, target)
			if err != nil {
				return nil, target, err
			}
			file = file[:0]
			for {
				n, err := fr.Read(copyBuf)
				file = append(file, copyBuf[:n]...)
				if err == io.EOF {
					return file, target, nil
				}
				if err != nil {
					return nil, target, err
				}
			}
		},
		"gateway": func() ([]byte, block.FileID, error) {
			w := httptest.NewRecorder()
			w.Body = bytes.NewBuffer(file[:0]) // sized, so the recorder does not grow it per read
			cl.gateway.ServeHTTP(w, httptest.NewRequest(http.MethodGet, url, nil))
			if w.Code != http.StatusOK {
				return nil, target, fmt.Errorf("gateway: status %d", w.Code)
			}
			return w.Body.Bytes(), target, nil
		},
		"http": func() ([]byte, block.FileID, error) {
			data, err := conn.get(target, 0)
			return data, target, err
		},
	}

	var out []rung
	for _, name := range ladderRungs {
		step := steps[name]
		var us, allocs []float64
		for b := 0; b < ladderBatches; b++ {
			var mem0, mem1 runtime.MemStats
			runtime.ReadMemStats(&mem0)
			var busy time.Duration
			iters := 0
			for began := time.Now(); time.Since(began) < batch; iters++ {
				t0 := time.Now()
				data, f, err := step()
				busy += time.Since(t0)
				if err == nil && (len(data) != ladderFileBytes || crc32.ChecksumIEEE(data) != oracle.fileCRC[f]) {
					err = fmt.Errorf("ladder %s: file %d: %w", name, f, errContent)
				}
				check(err)
			}
			runtime.ReadMemStats(&mem1)
			us = append(us, float64(busy.Microseconds())/float64(iters))
			allocs = append(allocs, float64(mem1.Mallocs-mem0.Mallocs)/float64(iters))
		}
		out = append(out, rung{Name: name, US: median(us), Allocs: median(allocs)})
	}
	return out, nil
}
