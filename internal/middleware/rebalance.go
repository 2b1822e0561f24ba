package middleware

import (
	"sort"
	"sync/atomic"

	"repro/internal/block"
)

// Rebalance: when the ring changes, every file whose home moved onto this
// node is pulled from its previous home before this node serves (or
// accepts) master traffic for it. The pull is lazy-first — the hot path
// triggers it on demand via ensureMigrated — with a background drainer
// walking the remainder so RebalancePending reaches zero without traffic.
//
// Zero-error guarantee during a resize: until the pull for a file
// completes, the OLD home still holds the authoritative blocks and keeps
// serving them (a draining member serves until its hand-off finishes; a
// joining member pulls before answering). A request that lands on the new
// home blocks briefly on the pull instead of missing.

// FileLister is implemented by block sources that can enumerate their
// files. Sources without it skip proactive rebalance (files still migrate
// lazily on first touch — correctness does not depend on the listing).
type FileLister interface {
	Files() []block.FileID
}

// ensureMigrated blocks until file f's hand-off to this node (if any) has
// completed, after any view install that may be about to queue it. The fast
// path is two atomic loads: steady-state traffic pays nothing more.
func (n *Node) ensureMigrated(f block.FileID) {
	if n.installing.Load() != 0 {
		n.installMu.RLock()
		n.installMu.RUnlock() //nolint:staticcheck // an empty section: waiting for the install is the point
	}
	if n.migrCount.Load() == 0 {
		return
	}
	n.migrateFile(f)
}

// migrateFile runs (or joins) the pull of file f. Concurrent callers for
// the same file share one flight; the pending entry is removed whether the
// pull succeeded or the old home is gone (the blocks are unreachable — the
// new home's baseline stands and rewrites proceed).
func (n *Node) migrateFile(f block.FileID) {
	n.migrMu.Lock()
	oldHome, pending := n.migrPending[f]
	if !pending {
		n.migrMu.Unlock()
		return
	}
	if ch, inFlight := n.migrFlight[f]; inFlight {
		n.migrMu.Unlock()
		<-ch
		return
	}
	ch := make(chan struct{})
	n.migrFlight[f] = ch
	n.migrMu.Unlock()

	n.pullFile(f, oldHome)

	n.migrMu.Lock()
	delete(n.migrPending, f)
	delete(n.migrFlight, f)
	n.migrMu.Unlock()
	n.migrCount.Add(-1)
	close(ch)
}

// pullFile copies file f's authoritative blocks from its previous home
// into the local source: run-granular MsgGetRun/FlagMaster sweeps. A block
// that fails to read at the old home ends its run (or, as the run's first
// block, fails it with an application error); the sweep skips that one
// block and starts the next run right after it, so a bad block costs
// itself and not the blocks behind it. The loop is bounded by the
// locally-known file size (the file-set metadata every node shares). Only
// a transport failure means the old home is gone: its write-through state
// is lost with it and the local baseline stands, same as any cold file.
func (n *Node) pullFile(f block.FileID, oldHome int) {
	if oldHome < 0 || oldHome == n.cfg.ID {
		return
	}
	size, err := n.cfg.Source.FileSize(f)
	if err != nil {
		n.trace(traceRebalance, oldHome, block.ID{File: f}, -1)
		return
	}
	total := int(n.cfg.Geometry.Count(size))
	bl := n.cfg.Geometry.Size
	pulled := int64(0)
	for idx := 0; idx < total; {
		want := total - idx
		if want > maxRunBlocks {
			want = maxRunBlocks
		}
		req := getFrame()
		req.Type = MsgGetRun
		req.File = f
		req.Idx = int32(idx)
		req.Flags = FlagMaster
		req.Aux = packRunAux(want, 0)
		resp, err := n.reliableRPC(oldHome, req, 1)
		releaseFrame(req)
		if isTransient(err) {
			// Old home gone (crash path): its write-through state is lost;
			// the new baseline is backing storage, like a cold miss.
			n.trace(traceRebalance, oldHome, block.ID{File: f}, -1)
			return
		}
		count := 0
		if err == nil {
			count, _ = unpackRunAux(resp.Aux)
			count = min(count, want)
			data := resp.Payload[min(4*want, len(resp.Payload)):] // the served prefix, after the codes
			for k := 0; k < count && len(data) > 0; k++ {
				end := min(bl, len(data))
				// WriteBlock may retain the slice; the frame payload is pooled.
				cp := append([]byte(nil), data[:end]...)
				if werr := n.cfg.Source.WriteBlock(f, int32(idx+k), cp); werr == nil {
					pulled++
				}
				data = data[end:]
			}
			releaseFrame(resp)
		}
		idx += count
		if count < want {
			idx++ // block idx failed to read at the old home: skip it alone
		}
	}
	if pulled > 0 {
		atomic.AddUint64(&n.c.RebalancedBlocks, uint64(pulled))
	}
	n.trace(traceRebalance, oldHome, block.ID{File: f}, pulled)
}

// computeRebalance diffs two membership views and queues the pull of every
// locally-known file whose home moved onto this node. Called from
// afterViewInstall (outside n.mu).
func (n *Node) computeRebalance(old, v *memberView) {
	if v == nil || n.migrPending == nil {
		return
	}
	// A member leaving the ring pulls nothing; its successors pull from it.
	if self := n.cfg.ID; self < v.size() && v.members[self].State != stateAlive {
		return
	}
	lister, ok := n.cfg.Source.(FileLister)
	if !ok {
		return
	}
	files := lister.Files()
	sort.Slice(files, func(i, j int) bool { return files[i] < files[j] })

	added := 0
	n.migrMu.Lock()
	for _, f := range files {
		newHome, okNew := v.home(f)
		if !okNew {
			continue
		}
		if newHome != n.cfg.ID {
			// Home moved elsewhere (or never was here): nothing to pull, and
			// a stale pending entry for it is obsolete.
			if _, was := n.migrPending[f]; was {
				if _, inFlight := n.migrFlight[f]; !inFlight {
					delete(n.migrPending, f)
					n.migrCount.Add(-1)
				}
			}
			continue
		}
		oldHome := -1
		if old != nil {
			if h, okOld := old.home(f); okOld {
				oldHome = h
			}
		} else if h, okEx := v.homeExcluding(f, n.cfg.ID); okEx {
			// Freshly joined: our pre-join home is the ring without us
			// (removing our vnodes re-routes exactly our keys to their
			// previous successors).
			oldHome = h
		}
		if oldHome < 0 || oldHome == n.cfg.ID {
			continue
		}
		if _, dup := n.migrPending[f]; dup {
			continue
		}
		n.migrPending[f] = oldHome
		added++
	}
	n.migrMu.Unlock()
	if added > 0 {
		n.migrCount.Add(int64(added))
		go n.drainRebalance()
	}
}

// drainRebalance walks the pending set in the background so a resize
// converges (RebalancePending → 0) even for files no request touches.
func (n *Node) drainRebalance() {
	for {
		n.migrMu.Lock()
		var next block.FileID
		found := false
		for f := range n.migrPending {
			if _, inFlight := n.migrFlight[f]; inFlight {
				continue
			}
			if !found || f < next {
				next = f
				found = true
			}
		}
		n.migrMu.Unlock()
		if !found {
			return
		}
		n.migrateFile(next)
	}
}
