// Fileserver: a read/write block service on the middleware, exercising the
// paper's §6 future-work extension to writes — the write-invalidate
// protocol. A writer updates blocks while readers stream the file through
// different nodes; invalidation keeps every reader coherent.
//
// Run with:
//
//	go run ./examples/fileserver
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/middleware"
)

func main() {
	log.SetFlags(0)

	geom := block.DefaultGeometry
	const fileID = block.FileID(0)
	fileSize := int64(4 * geom.Size) // 4 blocks
	sizes := map[block.FileID]int64{fileID: fileSize}

	const n = 3
	nodes := make([]*middleware.Node, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		node, err := middleware.Start(middleware.Config{
			ID:             i,
			CapacityBlocks: 32,
			Policy:         core.PolicyMaster,
			Geometry:       geom,
			Source:         middleware.NewMemSource(geom, sizes),
		})
		if err != nil {
			log.Fatal(err)
		}
		defer node.Close()
		nodes[i] = node
		addrs[i] = node.Addr()
	}
	for _, node := range nodes {
		node.SetAddrs(addrs)
	}
	client, err := middleware.DialCluster(addrs)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	fmt.Printf("cluster up: %v\n\n", addrs)

	// Warm every node's cache with the file.
	for i := 0; i < n; i++ {
		if _, err := client.ReadVia(i, fileID); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("file cached on every node")

	// Overwrite block 2 through node 0: the middleware invalidates every
	// cached copy, writes through to the home disk, and keeps the writer
	// as the new master holder.
	newBlock := bytes.Repeat([]byte("W"), geom.Size)
	if err := client.Write(fileID, 2, newBlock); err != nil {
		log.Fatal(err)
	}
	fmt.Println("block 2 overwritten via write-invalidate")

	// Every entry node must now observe the new content.
	for i := 0; i < n; i++ {
		data, err := client.ReadVia(i, fileID)
		if err != nil {
			log.Fatal(err)
		}
		got := data[2*geom.Size : 3*geom.Size]
		if !bytes.Equal(got, newBlock) {
			log.Fatalf("node %d served stale content", i)
		}
		fmt.Printf("read via node %d: block 2 is fresh (%d bytes total)\n", i, len(data))
	}

	s, err := client.ClusterStats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ninvalidations=%d writes=%d\n", s.Invalidations, s.Writes)
}
