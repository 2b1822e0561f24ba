package middleware

import (
	"fmt"
	"sync/atomic"

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
	atomic.AddUint64(&n.c.Writes, 1)
	bus := n.busRef()

	// 1. Invalidate the local copy now: the writer must never read its own
	// stale bytes, and the new master is installed below.
	n.handleInvalidate(id)

	// 2. Write through to the home node's disk, which also records the
	// writer's claim to the new master. This is the durability point:
	// transient failures retry, and a home that stays down fails the write.
	// The publish happens after this (and after the master insert), so a
	// peer whose invalidation triggers a re-fetch can only find the new
	// bytes, never a pre-write disk image.
	if err := n.writeThrough(id, data); err != nil {
		return err
	}

	// 3. Only a durable write is cached. A reader the home names meanwhile
	// finds no copy here yet: one race miss on soft state.
	n.insertBlockBuf(id, copyPayloadBuf(data), true)

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
			atomic.AddUint64(&n.c.HomeFallbacks, 1)
			n.trace(traceHomeFallback, home, id, 2)
			err = n.putMaster(id, data, succ)
		}
	}
	return err
}

// putMaster persists one block at the given home node (putLocal there).
func (n *Node) putMaster(id block.ID, data []byte, home int) error {
	if home == n.cfg.ID {
		return n.putLocal(id, data, int32(home))
	}
	req := getFrame()
	req.Type, req.File, req.Idx, req.Payload = MsgPutBlock, id.File, id.Idx, data
	resp, err := n.reliableRPC(home, req, n.tol.retries)
	req.Payload = nil // caller's slice, not ours to recycle
	releaseFrame(req)
	if err == nil {
		releaseFrame(resp)
	}
	return err
}

// putLocal persists writer's write-through here (MsgPutBlock, or a write at
// its own home) and records writer as the master when this node homes the
// file; a ring successor standing in for a dead home records nothing. The
// claim is soft state: without it the next reader pays a home read.
func (n *Node) putLocal(id block.ID, data []byte, writer int32) error {
	n.ensureMigrated(id.File) // a migration finishing later must not clobber this block
	if err := n.cfg.Source.WriteBlock(id.File, id.Idx, data); err != nil {
		return err
	}
	if writer != int32(n.cfg.ID) { // its invalidation may still be on the bus
		n.store.Remove(id)
	}
	if writer >= 0 && n.homes(id.File) {
		n.dirSrv.updateN(id.File, []int32{id.Idx}, writer)
	}
	return nil
}
