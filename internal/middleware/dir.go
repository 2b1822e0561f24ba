package middleware

import (
	"slices"
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
	// passed lists, per block, the nodes whose repoint away from the block
	// arrived while its entry named another node. Each repoint comes from
	// the node it names, on that node's own conn, so the repoint naming a
	// node can land after that node's repoint onward: it had passed the
	// block on first. A claim clears the block's list; it holds at most
	// maxPassed blocks, and forgets them all when full.
	passed map[block.ID][]int32
}

// maxPassed bounds dirServer.passed. A list outlives its use only when no
// repoint naming the node ever lands; these are rare (a refused repoint
// is about one in 10 000 operations on disk_bound).
const maxPassed = 1024

func newDirServer() *dirServer {
	return &dirServer{masters: make(map[block.ID]int32), passed: make(map[block.ID][]int32)}
}

// cas repoints the entry to toNode (dirNoEntry: drops it), but only if it
// still names ifNode, so a stale repoint cannot erase a newer claim. A
// repoint refused while the entry names another node is remembered in
// passed, and a later repoint to that node drops the entry instead: the
// node no longer holds the block.
func (d *dirServer) cas(id block.ID, ifNode, toNode int32) {
	d.mu.Lock()
	defer d.mu.Unlock()
	cur, ok := d.masters[id]
	if !ok {
		return
	}
	if cur != ifNode {
		if !slices.Contains(d.passed[id], ifNode) {
			if len(d.passed) >= maxPassed {
				clear(d.passed)
			}
			d.passed[id] = append(d.passed[id], ifNode)
		}
		return
	}
	if slices.Contains(d.passed[id], toNode) {
		toNode = dirNoEntry
	}
	if toNode == dirNoEntry {
		delete(d.masters, id)
		delete(d.passed, id)
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
		id := block.ID{File: f, Idx: idx}
		d.masters[id] = node
		if len(d.passed) > 0 {
			delete(d.passed, id)
		}
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
	for id := range d.passed {
		if _, kept := d.masters[id]; !kept {
			delete(d.passed, id)
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
// one-way MsgDirDrop, which the home applies in the order this node wrote
// it. It waits on nothing, so a peer's request may cause one. Best effort: a
// repoint lost with its conn leaves a stale entry, which costs the next
// reader one race miss.
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
	_ = n.sendTo(m, req) // best effort, as above
	releaseFrame(req)
}
