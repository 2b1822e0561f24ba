package middleware

import (
	"fmt"
	"sync"

	"repro/internal/block"
)

// readWindow bounds how many blocks of one read are outstanding at once —
// the live counterpart of the simulator's pipelined fetch window (one 64 KB
// extent): the run planner launches a read's runs together, each holding
// one slot per block (fetchRuns), and a home reads the blocks of one run
// from its source at the same time (readSourceRun).
const readWindow = 8

// window runs the fetches of one read on goroutines with at most readWindow
// blocks outstanding. Tasks are started from one goroutine, in order. Once
// a task has failed no further task starts, and wait reports the failure of
// the earliest-started task: the error a serial loop would have returned.
type window struct {
	slots   chan struct{}
	wg      sync.WaitGroup
	started int

	mu     sync.Mutex
	err    error
	errSeq int // start order of the task that reported err; read after wait
}

func newWindow() *window {
	return &window{slots: make(chan struct{}, readWindow)}
}

func (w *window) failed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err != nil
}

// start waits for `blocks` free slots (at most readWindow) and runs task on
// its own goroutine. It reports false, starting nothing, when a task has
// failed by then; the caller stops starting tasks and calls wait.
func (w *window) start(blocks int, task func() error) bool {
	for i := 0; i < blocks; i++ {
		w.slots <- struct{}{}
	}
	if w.failed() {
		return false
	}
	seq := w.started
	w.started++
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		if err := task(); err != nil {
			w.mu.Lock()
			if w.err == nil || seq < w.errSeq {
				w.err, w.errSeq = err, seq
			}
			w.mu.Unlock()
		}
		// The slots free only after the error is recorded, so a task that
		// queued behind this one sees the failure and never starts.
		for i := 0; i < blocks; i++ {
			<-w.slots
		}
	}()
	return true
}

// wait returns once every started task has, with the first failure.
func (w *window) wait() error {
	w.wg.Wait()
	return w.err
}

// ReadFile materializes a whole file through the cooperative cache and
// returns its content through the run-granular planner (readPlanned): a
// synchronous local sweep that spawns zero goroutines for a fully cached
// file, then missing blocks grouped by believed holder and fetched as
// runs, one MsgGetRun per (source, run).
func (n *Node) ReadFile(f block.FileID) ([]byte, error) {
	size, err := n.cfg.Source.FileSize(f)
	if err != nil {
		return nil, err
	}
	nblocks := n.geom.Count(size)
	out := make([]byte, size)
	if nblocks > 0 {
		if err := n.readPlanned(f, size, 0, nblocks-1, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runPlan is one planned fetch: count contiguous missing blocks starting at
// first, believed to live on node src (home true: a master read through the
// file's home node).
type runPlan struct {
	first int32
	count int
	src   int
	home  bool
}

// planRuns groups the missing block indices (ascending) by believed holder
// into contiguous runs of at most readWindow blocks: one batched directory
// lookup resolves the whole window, then consecutive indices with the same
// source coalesce. Unknown holders and stale self-entries route to the home
// node, exactly as a failed or absent per-block lookup does.
func (n *Node) planRuns(f block.FileID, missing []int32) ([]runPlan, error) {
	holders := n.dirLookupN(f, missing)
	home, err := n.home(f)
	if err != nil {
		return nil, err
	}
	self := int32(n.cfg.ID)
	toHome := func(h int32) bool { return h == dirNoEntry || h == self }
	var runs []runPlan
	for k := 0; k < len(missing); {
		src := holders[k]
		j := k + 1
		for j < len(missing) && j-k < readWindow && missing[j] == missing[j-1]+1 {
			if toHome(src) != toHome(holders[j]) || (!toHome(src) && holders[j] != src) {
				break
			}
			j++
		}
		r := runPlan{first: missing[k], count: j - k, home: toHome(src)}
		if r.home {
			r.src = home
		} else {
			r.src = int(src)
		}
		runs = append(runs, r)
		k = j
	}
	return runs, nil
}

// blockDst is block i's part of out, whose first byte is the head of block
// base.
func (n *Node) blockDst(out []byte, size int64, base, i int32) []byte {
	off := int64(i-base) * int64(n.geom.Size)
	end := off + int64(blockLen(n.geom, size, i))
	if end > int64(len(out)) {
		end = int64(len(out))
	}
	return out[off:end]
}

// readPlanned fills out — whose first byte is the head of block first —
// with blocks [first, last] of f. Phase one is a synchronous local sweep
// (CopyInto: the reference is pinned under the shard lock, the copy runs
// outside it; a fully cached file costs zero goroutines and zero RPCs).
// Phase two groups the misses into runs and fetches them (fetchRuns).
func (n *Node) readPlanned(f block.FileID, size int64, first, last int32, out []byte) error {
	var missing []int32
	for i := first; i <= last; i++ {
		if _, ok := n.store.CopyInto(block.ID{File: f, Idx: i}, n.blockDst(out, size, first, i)); ok {
			n.c.accesses.Add(1)
			n.c.localHits.Add(1)
			continue
		}
		// A miss's access is counted when the block is actually served
		// (fetchRun, or the per-block fallback which counts for itself), so
		// every block of the read is counted once.
		missing = append(missing, i)
	}
	if len(missing) == 0 {
		return nil
	}
	runs, err := n.planRuns(f, missing)
	if err != nil {
		return err
	}
	return n.fetchRuns(f, size, runs, out, first)
}

// fetchRuns executes a plan for a read whose out starts at the head of
// block outBase. A plan of one run — the common case — runs on the caller's
// goroutine and allocates nothing. The runs of a longer plan go out
// together, each holding one window slot per block, so a read that misses
// at several holders waits for the slowest of them and not for their sum. Runs start in plan order; after the first
// failure none starts and that failure is returned.
func (n *Node) fetchRuns(f block.FileID, size int64, runs []runPlan, out []byte, outBase int32) error {
	if len(runs) == 1 {
		return n.execRun(f, size, runs[0], out, outBase)
	}
	w := newWindow()
	for _, r := range runs {
		if !w.start(r.count, func() error { return n.execRun(f, size, r, out, outBase) }) {
			break
		}
	}
	return w.wait()
}

// execRun fetches one planned run: a multi-block run with one MsgGetRun
// (fetchRun), and whatever that does not deliver (stale holder, fault,
// concurrent eviction) through the per-block getBlock path, which carries
// the full §3 race and fault semantics — a degraded run is
// correctness-equivalent, never an error. A run of one block skips
// straight to getBlock, the batch framing would buy nothing, and hands it
// the holder the plan resolved, so the fetch does not ask the directory a
// second time; the fallback after a degraded run looks up afresh.
func (n *Node) execRun(f block.FileID, size int64, r runPlan, out []byte, outBase int32) error {
	served, holder := 0, lookupHolder
	if r.count > 1 {
		served = n.fetchRun(f, size, r, out, outBase)
	} else if r.home {
		holder = dirNoEntry
	} else {
		holder = int32(r.src)
	}
	for i := r.first + int32(served); i < r.first+int32(r.count); i++ {
		dst := n.blockDst(out, size, outBase, i)
		_, got, err := n.getBlock(block.ID{File: f, Idx: i}, dst, holder)
		if err != nil {
			return err
		}
		if got != len(dst) {
			return fmt.Errorf("middleware: block %d:%d is %d bytes, want %d", f, i, got, len(dst))
		}
	}
	return nil
}

// readSourceRun reads blocks [first, first+count) of f from this node's
// backing source, at most readWindow at a time, and returns the leading
// blocks that read without error, with the error that ended the prefix. A
// k-block miss then waits one source latency and not k. A run of one block
// is a plain call.
func (n *Node) readSourceRun(f block.FileID, first int32, count int) ([][]byte, error) {
	if count == 1 {
		data, err := n.cfg.Source.ReadBlock(f, first)
		if err != nil {
			return nil, err
		}
		return [][]byte{data}, nil
	}
	blocks := make([][]byte, count)
	w := newWindow()
	for k := range blocks {
		started := w.start(1, func() (err error) {
			blocks[k], err = n.cfg.Source.ReadBlock(f, first+int32(k))
			return err
		})
		if !started {
			break
		}
	}
	if err := w.wait(); err != nil {
		// Tasks start in order, so every block before the failed one was read.
		return blocks[:w.errSeq], err
	}
	return blocks, nil
}

// fetchRun issues one MsgGetRun for run r and installs what came back:
// blocks copied into out, the run installed into the store under one lock
// (InsertRun), one access per block (a remote hit for a peer run, a disk
// read for a home run), and for home runs one batched directory UpdateN
// claiming mastership. It returns how many leading blocks of the run were
// fully handled; the caller falls back per-block for the rest. A run whose
// source is this node's own backing store (home == self) reads disk
// directly with no RPC.
func (n *Node) fetchRun(f block.FileID, size int64, r runPlan, out []byte, outBase int32) int {
	if r.home && r.src == n.cfg.ID {
		// Local home: disk reads, no wire. Still one InsertRun/UpdateN.
		// A home that just moved here pulls the previous home's
		// write-through state before the first authoritative read.
		n.ensureMigrated(f)
		// A failed block ends the run; the per-block fallback reads it again
		// and reports its error.
		read, _ := n.readSourceRun(f, r.first, r.count)
		blocks := make([]*payloadBuf, len(read))
		for k, data := range read {
			copy(n.blockDst(out, size, outBase, r.first+int32(k)), data)
			n.c.accesses.Add(1)
			n.c.diskReads.Add(1)
			blocks[k] = newPayloadBuf(data)
		}
		n.installRun(f, r.first, blocks, true)
		return len(blocks)
	}
	req := getFrame()
	req.Type, req.File, req.Idx = MsgGetRun, f, r.first
	req.Aux = packRunAux(r.count, 0)
	retries := 0
	if r.home {
		req.Flags = FlagMaster
		retries = n.retries
	}
	n.c.runsIssued.Add(1)
	resp, err := n.reliableRPC(r.src, req, retries)
	releaseFrame(req)
	if err != nil {
		n.c.runsDegraded.Add(1)
		n.runBlocks.Observe(0)
		n.trace(traceRunFetch, r.src, block.ID{File: f, Idx: r.first}, 0)
		return 0
	}
	served := 0
	if resp.Type == MsgRunData {
		k, _ := unpackRunAux(resp.Aux)
		if k > r.count {
			k = r.count
		}
		expect := 0
		for i := 0; i < k; i++ {
			expect += blockLen(n.geom, size, r.first+int32(i))
		}
		if len(resp.Payload) == expect {
			blocks := make([]*payloadBuf, 0, k)
			off := 0
			for i := r.first; i < r.first+int32(k); i++ {
				l := blockLen(n.geom, size, i)
				// One pool-backed copy per block: splitting the multi-block
				// response means one live block never pins the whole run's
				// payload, and eviction recycles each block independently.
				pb := newPooledPayloadBuf(l)
				copy(pb.data, resp.Payload[off:off+l])
				off += l
				copy(n.blockDst(out, size, outBase, i), pb.data)
				n.c.accesses.Add(1)
				if r.home {
					n.c.diskReads.Add(1)
				} else {
					n.c.remoteHits.Add(1)
				}
				blocks = append(blocks, pb)
			}
			n.installRun(f, r.first, blocks, r.home)
			served = k
		}
	}
	releaseFrame(resp)
	if served < r.count {
		n.c.runsDegraded.Add(1)
	}
	n.runBlocks.Observe(int64(served))
	n.trace(traceRunFetch, r.src, block.ID{File: f, Idx: r.first}, int64(served))
	return served
}

// installRun puts a fetched run into the store (one lock acquisition per
// touched shard), gives displaced masters their §3 second chance, and (for
// home runs) repoints the directory with one batched UpdateN. The store
// takes the caller's reference on every payload.
func (n *Node) installRun(f block.FileID, first int32, blocks []*payloadBuf, master bool) {
	if len(blocks) == 0 {
		return
	}
	for _, ev := range n.store.InsertRun(f, first, blocks, master) {
		n.dispatchEvicted(ev)
	}
	if master {
		idxs := make([]int32, len(blocks))
		for i := range idxs {
			idxs[i] = first + int32(i)
		}
		n.dirUpdateN(f, idxs, int32(n.cfg.ID)) //nolint:errcheck // next miss self-corrects via home
	}
}

// GetBlock returns the content of one block, implementing the §3 protocol:
// local cache, then the master copy located through the directory, then a
// master read through the file's home node. Concurrent
// misses for the same block coalesce into one fetch. The returned slice is
// the caller's own copy: the cache can evict and recycle its buffer without
// the returned bytes ever changing underneath the caller.
func (n *Node) GetBlock(id block.ID) ([]byte, error) {
	pb, _, err := n.getBlock(id, nil, lookupHolder)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(pb.data))
	copy(out, pb.data)
	pb.release()
	return out, nil
}

// lookupHolder is the holder argument of a fetch that must ask the
// directory where the master is. Any other value is the answer a batched
// lookup already gave: a node, or dirNoEntry for "no master cached, read
// through the home".
const lookupHolder = int32(-2)

// getBlock is the shared per-block fetch path. With dst == nil it returns a
// pinned reference to the block payload — the caller must release it, and
// until then eviction cannot recycle the bytes; with dst != nil it copies
// into dst and returns the count. holder is what the caller already knows
// of the master's location (lookupHolder: nothing); it serves the first
// fetch only, a fetch after a coalesced wait asks the directory again.
func (n *Node) getBlock(id block.ID, dst []byte, holder int32) (*payloadBuf, int, error) {
	for {
		n.c.accesses.Add(1)
		if dst != nil {
			if nn, ok := n.store.CopyInto(id, dst); ok {
				n.c.localHits.Add(1)
				return nil, nn, nil
			}
		} else if pb, ok := n.store.GetRef(id); ok {
			n.c.localHits.Add(1)
			return pb, 0, nil
		}
		// Coalesce concurrent fetches of the same block.
		sh := n.pendingShard(id)
		sh.mu.Lock()
		if ch, inflight := sh.waiting[id]; inflight {
			sh.mu.Unlock()
			<-ch
			// Re-check the cache; if the block was already evicted again
			// (or the fetch failed), loop and fetch for ourselves.
			holder = lookupHolder
			continue
		}
		ch := make(chan struct{})
		sh.waiting[id] = ch
		sh.mu.Unlock()

		pb, err := n.fetchBlock(id, holder)

		sh.mu.Lock()
		delete(sh.waiting, id)
		sh.mu.Unlock()
		close(ch)
		if err != nil {
			return nil, 0, err
		}
		if dst != nil {
			nn := copy(dst, pb.data)
			pb.release()
			return nil, nn, nil
		}
		return pb, 0, nil
	}
}

// fetchBlock obtains a missing block from a peer or through the home node.
// A peer cache fetch gets exactly one attempt (breaker-gated): its retry
// is the home fallback, which keeps a block fetch bounded by roughly
// RPCTimeout × (Retries + 1) even when the believed master is dead. The
// returned payload is pinned for the caller (one reference), with a second
// reference handed to the store by the install. holder is the believed
// master when the caller has already resolved it (see lookupHolder); a wrong
// one costs what a stale directory answer costs, a race miss and the home
// read.
func (n *Node) fetchBlock(id block.ID, holder int32) (*payloadBuf, error) {
	m := holder
	if holder == lookupHolder {
		m = n.dirLookupN(id.File, []int32{id.Idx})[0]
	}
	if m != dirNoEntry && m != int32(n.cfg.ID) {
		pb, err := n.getOne(int(m), id, 0, 0)
		if pb != nil {
			n.c.remoteHits.Add(1)
			n.insertBlockBuf(id, pb.retain(), false)
			return pb, nil
		}
		// The master vanished while the request traveled (§3's explicitly
		// tolerated race) or the peer is down: fall through to the home
		// node. A peer that answered "miss" or is unreachable has its stale
		// entry dropped (compare-and-delete on m, so a newer claim survives)
		// instead of being re-dialed on every future miss; the home read
		// below repairs the entry to name this node.
		n.c.raceMisses.Add(1)
		if isTransient(err) {
			n.c.staleDrops.Add(1)
			n.c.homeFallbacks.Add(1)
			n.trace(traceStaleDrop, int(m), id, 0)
			n.trace(traceHomeFallback, int(m), id, 0)
		}
		if err == nil || isTransient(err) {
			n.dirDrop(id, m)
		}
	}
	// A failed directory lookup (the home unreachable) also lands here: the
	// read degrades to the home path and its ring successor instead of
	// failing.
	return n.fetchFromHome(id)
}

// fetchFromHome reads the master copy via the file's home node and installs
// this node as the master holder. Under the elastic ring, an unreachable
// home degrades to its ring successor — the node that inherits the file
// once the failure is promoted to a membership change — so reads stay
// error-free through a crash.
func (n *Node) fetchFromHome(id block.ID) (*payloadBuf, error) {
	home, err := n.home(id.File)
	if err != nil {
		return nil, err
	}
	pb, err := n.readMaster(id, home)
	if err != nil && isTransient(err) {
		if succ, ok := n.ringSuccessor(id.File, home); ok {
			n.c.homeFallbacks.Add(1)
			n.trace(traceHomeFallback, home, id, 1)
			pb, err = n.readMaster(id, succ)
		}
	}
	if err != nil {
		return nil, err
	}
	n.c.diskReads.Add(1)
	n.insertBlockBuf(id, pb.retain(), true)
	n.dirUpdateN(id.File, []int32{id.Idx}, int32(n.cfg.ID)) //nolint:errcheck // next miss self-corrects via home
	return pb, nil
}

// ringSuccessor names the node that takes over f if `down` leaves the ring:
// the next alive member on the hash ring.
func (n *Node) ringSuccessor(f block.FileID, down int) (int, bool) {
	v := n.view.Load()
	if v == nil {
		return 0, false
	}
	succ, ok := v.homeExcluding(f, down)
	if !ok || succ == down {
		return 0, false
	}
	return succ, true
}

// readMaster reads one authoritative block via the given home node: the
// local backing store when that is us, a retried one-block FlagMaster run
// otherwise (the home is the only source of this block's truth, and a
// restarting home comes back).
func (n *Node) readMaster(id block.ID, home int) (*payloadBuf, error) {
	if home == n.cfg.ID {
		n.ensureMigrated(id.File)
		data, err := n.cfg.Source.ReadBlock(id.File, id.Idx)
		if err != nil {
			return nil, err
		}
		return newPayloadBuf(data), nil // fresh source slice, GC-owned
	}
	pb, err := n.getOne(home, id, FlagMaster, n.retries)
	if err == nil && pb == nil {
		err = fmt.Errorf("middleware: home %d served no block for %v", home, id)
	}
	return pb, err
}

// getOne fetches block id from node `to` as a run of one block (flags
// FlagMaster: a home read). A nil payload with a nil error is a miss: the
// node answered but holds no copy.
func (n *Node) getOne(to int, id block.ID, flags uint8, retries int) (*payloadBuf, error) {
	req := getFrame()
	req.Type, req.Flags, req.File, req.Idx, req.Aux = MsgGetRun, flags, id.File, id.Idx, packRunAux(1, 0)
	resp, err := n.reliableRPC(to, req, retries)
	releaseFrame(req)
	if err != nil {
		return nil, err
	}
	defer releaseFrame(resp)
	if count, _ := unpackRunAux(resp.Aux); resp.Type != MsgRunData || count != 1 {
		return nil, nil
	}
	return resp.TakePayloadBuf(), nil // pool backing travels with the bytes
}

// insertBlock caches content and handles the eviction it may cause: a
// displaced master gets the §3 second chance — forwarded to the peer whose
// (piggyback-known) oldest block is older, dropped if it is the globally
// oldest.
func (n *Node) insertBlock(id block.ID, data []byte, master bool) {
	if ev := n.store.Insert(id, data, master); ev != nil {
		n.dispatchEvicted(ev)
	}
}

// insertBlockBuf is insertBlock for a payload the caller already holds a
// reference on: the store takes ownership of that reference.
func (n *Node) insertBlockBuf(id block.ID, pb *payloadBuf, master bool) {
	if ev := n.store.InsertBuf(id, pb, master); ev != nil {
		n.dispatchEvicted(ev)
	}
}

// dispatchEvicted routes one store eviction: a displaced master gets its §3
// second chance off the serving goroutine; a displaced non-master copy is
// simply gone.
func (n *Node) dispatchEvicted(ev *Evicted) {
	if ev.Master {
		go n.forwardEvicted(ev)
	}
}

func (n *Node) forwardEvicted(ev *Evicted) {
	defer ev.Release() // the eviction's pin on the payload ends here
	self := int32(n.cfg.ID)
	v := n.viewRef()
	target := -1
	var oldest int64
	for i := 0; i < n.clusterSize(); i++ {
		if i == n.cfg.ID || (v != nil && !v.reachable(i)) {
			continue
		}
		age := n.peerAges[i].Load()
		if age >= ev.Age {
			continue // peer holds nothing older (or age unknown)
		}
		if target < 0 || age < oldest {
			target, oldest = i, age
		}
	}
	if target < 0 {
		// Globally oldest as far as this node knows: drop it.
		n.dirDrop(ev.ID, self)
		return
	}
	// Optimistically repoint the directory, then ship the block.
	n.dirUpdateN(ev.ID.File, []int32{ev.ID.Idx}, int32(target)) //nolint:errcheck // corrected below
	req := getFrame()
	req.Type, req.File, req.Idx, req.Aux = MsgForward, ev.ID.File, ev.ID.Idx, ev.Age
	req.Payload = ev.Data // pinned by ev until the Release above
	// Best effort: a forward to a dead peer is simply a dropped master.
	resp, err := n.reliableRPC(target, req, 0)
	req.Payload = nil // still owned by ev, keep releaseFrame's hands off
	releaseFrame(req)
	accepted := err == nil && resp.Flags != 0
	if err == nil {
		releaseFrame(resp)
	}
	if !accepted {
		// Rejected (everything there was younger) or failed: the cluster
		// forgets this master.
		n.c.forwardsRejected.Add(1)
		n.trace(traceForward, target, ev.ID, 0)
		n.dirDrop(ev.ID, int32(target))
		return
	}
	n.c.forwards.Add(1)
	n.trace(traceForward, target, ev.ID, 1)
}
