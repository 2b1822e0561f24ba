package middleware

import (
	"fmt"

	"repro/internal/block"
)

// WriteBlock implements the paper's §6 write extension with a
// write-invalidate protocol: every cached copy in the cluster is
// invalidated, the content is written through to the home node's backing
// store, and the writer becomes the new master holder. Per-block semantics
// are last-writer-wins; ordering across concurrent writers of the same
// block is not defined (the paper leaves full write protocols to future
// work).
//
// The cluster-wide invalidation rides the asynchronous bus (inval.go): the
// writer invalidates locally, writes through, installs the new master,
// publishes one sequenced record, and returns — peer latency is off the
// critical path, and peers converge within the bounded staleness window. A
// one-node cluster has no bus and no peer to tell: it skips the publish.
func (n *Node) WriteBlock(id block.ID, data []byte) error {
	size, err := n.cfg.Source.FileSize(id.File)
	if err != nil {
		return err
	}
	if want := blockLen(n.geom, size, id.Idx); want < 0 || len(data) != want {
		return fmt.Errorf("middleware: write of %d bytes to %v (block is %d bytes)", len(data), id, want)
	}
	n.c.writes.Add(1)
	bus := n.busRef()

	// 1. Invalidate the local copy now: the writer must never read its own
	// stale bytes, and the new master is installed below.
	n.handleInvalidate(id)

	// 2. Write through to the home node's disk. This is the durability
	// point: transient failures retry, and a home that stays down fails the
	// write. The publish happens after this (and after the master insert),
	// so a peer whose invalidation triggers a re-fetch can only find the
	// new bytes, never a pre-write disk image.
	if err := n.writeThrough(id, data); err != nil {
		return err
	}

	// 3. The writer holds the new master copy. The claim is soft state kept
	// on the file's home: when the home is down the write-through above
	// already went to its ring successor, and a claim that cannot be
	// recorded costs the next reader a home read, not the write.
	n.insertBlock(id, data, true)
	n.dirUpdateN(id.File, []int32{id.Idx}, int32(n.cfg.ID)) //nolint:errcheck // next miss self-corrects via home

	// 4. Publish the invalidation record: per-peer sender loops deliver it
	// in batched MsgInvalidateN frames in the background.
	if bus != nil {
		bus.publish(id)
	}
	return nil
}

// writeThrough persists data at id's home: a local disk write when this
// node is the home, a retried MsgPutBlock otherwise. Under the elastic
// ring an unreachable home degrades to its ring successor — the node that
// inherits the file once the failure becomes a membership change — so
// writes stay error-free through a crash.
func (n *Node) writeThrough(id block.ID, data []byte) error {
	home, err := n.home(id.File)
	if err != nil {
		return err
	}
	err = n.putMaster(id, data, home)
	if err != nil && isTransient(err) {
		if succ, ok := n.ringSuccessor(id.File, home); ok {
			n.c.homeFallbacks.Add(1)
			n.trace(traceHomeFallback, home, id, 2)
			err = n.putMaster(id, data, succ)
		}
	}
	return err
}

// putMaster persists one block at the given home node.
func (n *Node) putMaster(id block.ID, data []byte, home int) error {
	if home == n.cfg.ID {
		// Pull the previous home's state first: a migration finishing after
		// this write must not clobber the newer block.
		n.ensureMigrated(id.File)
		return n.cfg.Source.WriteBlock(id.File, id.Idx, data)
	}
	req := getFrame()
	req.Type, req.File, req.Idx, req.Payload = MsgPutBlock, id.File, id.Idx, data
	resp, err := n.reliableRPC(home, req, n.retries)
	req.Payload = nil // caller's slice, not ours to recycle
	releaseFrame(req)
	if err != nil {
		return err
	}
	releaseFrame(resp)
	return nil
}
