package middleware

import (
	"fmt"
	"sync"

	"repro/internal/block"
)

// The master-block directory is placed by the membership ring: the entries
// of file f live on view.home(f), the node that already homes f's bytes, so
// homes and directory managers share one placement function and a whole
// window of one file always has one manager. Every node hosts a dirServer
// for the files it homes. The entries are soft state: a crash or a resize
// loses them, the next miss reads through the home and records the new
// master there.

// dirServer holds the directory entries this node manages.
type dirServer struct {
	mu      sync.Mutex
	masters map[block.ID]int32
}

func newDirServer() *dirServer {
	return &dirServer{masters: make(map[block.ID]int32)}
}

// drop removes the entry, but only if it still names ifNode (compare-and-
// delete, so a stale drop cannot erase a newer claim). ifNode < 0 drops
// unconditionally.
func (d *dirServer) drop(id block.ID, ifNode int32) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if ifNode >= 0 {
		if cur, ok := d.masters[id]; !ok || cur != ifNode {
			return
		}
	}
	delete(d.masters, id)
}

// lookupN resolves a window of entries of file f under one lock
// acquisition, appending to out the master of each block idxs[i],
// dirNoEntry if absent.
func (d *dirServer) lookupN(f block.FileID, idxs []int32, out []int32) []int32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, idx := range idxs {
		if n, ok := d.masters[block.ID{File: f, Idx: idx}]; ok {
			out = append(out, n)
		} else {
			out = append(out, dirNoEntry)
		}
	}
	return out
}

// updateN records node's mastership of a window of blocks of f under one
// lock acquisition.
func (d *dirServer) updateN(f block.FileID, idxs []int32, node int32) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, idx := range idxs {
		d.masters[block.ID{File: f, Idx: idx}] = node
	}
}

// sweep drops the entries of every file v does not home on node self.
func (d *dirServer) sweep(v *memberView, self int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for id := range d.masters {
		if h, ok := v.home(id.File); !ok || h != self {
			delete(d.masters, id)
		}
	}
}

func (d *dirServer) size() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.masters)
}

// serveDirBatch applies a directory window of blocks of f on the node that
// manages them: the body of handleDirBatch, and of dirBatch when the manager
// is this node. MsgDirUpdateN repoints the window to node, MsgDirLookupN
// appends its answers to out.
func (n *Node) serveDirBatch(typ MsgType, f block.FileID, idxs []int32, node int32, out []int32) []int32 {
	if typ == MsgDirUpdateN {
		n.dirSrv.updateN(f, idxs, node)
		return out
	}
	return n.dirSrv.lookupN(f, idxs, out)
}

// dirDrop forgets id's master, conditioned on the entry still naming ifNode
// (ifNode < 0: unconditional): a local call when this node homes the file,
// else one MsgDirDrop to the home. Best effort: a lost drop leaves a stale
// entry, which costs the next reader one race miss.
func (n *Node) dirDrop(id block.ID, ifNode int32) {
	m, err := n.home(id.File)
	if err != nil {
		return
	}
	if m == n.cfg.ID {
		n.dirSrv.drop(id, ifNode)
		return
	}
	req := getFrame()
	req.Type, req.File, req.Idx, req.Aux = MsgDirDrop, id.File, id.Idx, int64(ifNode)
	resp, err := n.reliableRPC(m, req, n.retries)
	releaseFrame(req)
	if err == nil {
		releaseFrame(resp)
	}
}

// dirBatch runs a directory operation on a window of at most maxDirBatch
// blocks of f where their entries live: a local call when this node homes
// the file, else one RPC to the home. typ is MsgDirLookupN or
// MsgDirUpdateN; a lookup appends its answers to out. Directory operations
// are idempotent (lookups read, updates are absolute), so transient
// failures retry under the node's budget; when the home stays down its
// breaker opens and lookups fail fast, degrading reads to the home path and
// its ring successor instead of paying a timeout each.
func (n *Node) dirBatch(typ MsgType, f block.FileID, idxs []int32, node int32, out []int32) ([]int32, error) {
	m, err := n.home(f)
	if err != nil {
		return out, err
	}
	if m == n.cfg.ID {
		return n.serveDirBatch(typ, f, idxs, node, out), nil
	}
	req := getFrame()
	req.Type, req.File, req.Aux = typ, f, int64(node)
	req.Payload = appendIdxPayload(make([]byte, 0, 4*len(idxs)), idxs)
	resp, err := n.reliableRPC(m, req, n.retries)
	releaseFrame(req)
	if err != nil {
		return out, err
	}
	defer releaseFrame(resp)
	if typ != MsgDirLookupN {
		return out, nil
	}
	if resp.Type != MsgDirResultN || len(resp.Payload) != 4*len(idxs) {
		return out, fmt.Errorf("middleware: bad dir batch reply (type %d, %d bytes for %d idxs)", resp.Type, len(resp.Payload), len(idxs))
	}
	res, err := decodeIdxPayload(resp.Payload, out[len(out):])
	return append(out, res...), err
}

// dirLookupN resolves a window of blocks of f, maxDirBatch per message:
// out[i] is the believed master of block idxs[i], dirNoEntry when unknown.
// A failure degrades the entries not yet resolved to dirNoEntry — the
// planner routes those blocks through the home node — and never fails the
// read.
func (n *Node) dirLookupN(f block.FileID, idxs []int32) []int32 {
	out := make([]int32, 0, len(idxs))
	var err error
	for len(out) < len(idxs) && err == nil {
		chunk := idxs[len(out):]
		if len(chunk) > maxDirBatch {
			chunk = chunk[:maxDirBatch]
		}
		out, err = n.dirBatch(MsgDirLookupN, f, chunk, 0, out)
	}
	for len(out) < len(idxs) {
		out = append(out, dirNoEntry)
	}
	return out
}

// dirUpdateN records node's claim of mastership over a window of blocks.
func (n *Node) dirUpdateN(f block.FileID, idxs []int32, node int32) error {
	_, err := n.dirBatch(MsgDirUpdateN, f, idxs, node, nil)
	return err
}
