package middleware

import (
	"sync"

	"repro/internal/block"
)

// The master-block directory is placed by the membership ring: the entries
// of file f live on view.home(f), the node that already homes f's bytes, so
// a block's bytes and entry are on one node: a home miss (serveHome) and a
// write-through (putLocal) read and record entries where they run. The
// entries are soft state: a crash or a resize loses them, the next miss
// reads through the home and records the new master there.

// dirServer holds the directory entries this node manages.
type dirServer struct {
	mu      sync.Mutex
	masters map[block.ID]int32
}

func newDirServer() *dirServer {
	return &dirServer{masters: make(map[block.ID]int32)}
}

// cas repoints the entry to toNode (dirNoEntry: drops it), but only if it
// still names ifNode, so a stale repoint cannot erase a newer claim.
func (d *dirServer) cas(id block.ID, ifNode, toNode int32) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if cur, ok := d.masters[id]; !ok || cur != ifNode {
		return
	}
	if toNode == dirNoEntry {
		delete(d.masters, id)
	} else {
		d.masters[id] = toNode
	}
}

// lookupN resolves count entries of file f from block first under one lock
// acquisition, appending to out each block's master, dirNoEntry if absent.
func (d *dirServer) lookupN(f block.FileID, first int32, count int, out []int32) []int32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	for idx := first; idx < first+int32(count); idx++ {
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

// homes reports whether f's home under this node's own view is this node:
// only then does it keep f's directory entries.
func (n *Node) homes(f block.FileID) bool {
	h, err := n.home(f)
	return err == nil && h == n.cfg.ID
}

// dirCAS repoints id's entry from ifNode to toNode (dirNoEntry: drops it)
// at the file's home: a local call when this node homes the file, else one
// MsgDirDrop. Best effort: a lost repoint leaves a stale entry, which costs
// the next reader one race miss.
func (n *Node) dirCAS(id block.ID, ifNode, toNode int32) {
	m, err := n.home(id.File)
	if err != nil {
		return
	}
	if m == n.cfg.ID {
		n.dirSrv.cas(id, ifNode, toNode)
		return
	}
	req := getFrame()
	req.Type, req.File, req.Idx, req.Aux = MsgDirDrop, id.File, id.Idx, int64(ifNode)<<32|int64(uint32(toNode))
	resp, err := n.reliableRPC(m, req, n.tol.retries)
	releaseFrame(req)
	if err == nil {
		releaseFrame(resp)
	}
}
