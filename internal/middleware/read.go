package middleware

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/block"
)

// readWindow bounds how many blocks of one read are outstanding at once —
// the live counterpart of the simulator's pipelined fetch window (one 64 KB
// extent): the planner launches a read's spans together, each holding one
// slot per wanted block (fetchSpans), and a home reads the blocks of one
// span from its source at the same time (readSource).
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

// ReadFile materializes a whole file through the cooperative cache: the
// range read of all of it.
func (n *Node) ReadFile(f block.FileID) ([]byte, error) {
	return n.ReadRange(f, 0, math.MaxInt)
}

// pinRange clamps [off, off+length) to the end of a size-byte file f and
// returns pinned references to the blocks the range covers, in order, in
// pins (whose capacity is used when it suffices), with the clamped end. The
// caller releases them (releasePins). Phase one is a synchronous local
// sweep (GetRef: a fully cached range costs zero goroutines and zero RPCs).
// Phase two sends the misses to the file's home in spans (fetchSpans). On
// an error no pin is left held.
func (n *Node) pinRange(f block.FileID, size, off int64, length int, pins []*payloadBuf) ([]*payloadBuf, int64, error) {
	if off < 0 || length < 0 || off > size {
		return nil, 0, fmt.Errorf("middleware: range %d+%d outside file %d (%d bytes)", off, length, f, size)
	}
	end := off + min(int64(length), size-off)
	if end == off {
		return pins[:0], end, nil
	}
	bs := int64(n.geom.Size)
	first := int32(off / bs)
	count := int((end-1)/bs) - int(first) + 1
	if cap(pins) < count {
		pins = make([]*payloadBuf, count)
	}
	pins = pins[:count]
	var missing []int32
	for k := range pins {
		i := first + int32(k)
		pb, ok := n.store.GetRef(block.ID{File: f, Idx: i})
		pins[k] = pb
		if ok {
			n.c.accesses.Add(1)
			n.c.localHits.Add(1)
			continue
		}
		// A miss's access is counted where the block is served, so every
		// block of the read is counted once.
		missing = append(missing, i)
	}
	var err error
	if len(missing) > 0 {
		err = n.fetchSpans(f, size, planSpans(missing), pins, first)
	}
	for k := 0; err == nil && k < len(pins); k++ {
		if got, want := len(pins[k].data), blockLen(n.geom, size, first+int32(k)); got != want {
			err = fmt.Errorf("middleware: block %d:%d is %d bytes, want %d", f, first+int32(k), got, want)
		}
	}
	if err != nil {
		releasePins(pins)
		return nil, 0, err
	}
	return pins, end, nil
}

// segments appends the bytes [off, end) of a file to segs, given pins, the
// pinned blocks that cover them from off's block on: each block's data,
// the first and the last sliced to the range. The segments alias the pins.
func (n *Node) segments(segs [][]byte, pins []*payloadBuf, off, end int64) [][]byte {
	bs := int64(n.geom.Size)
	base := off / bs * bs
	for _, pb := range pins {
		lo, hi := max(off-base, 0), min(end-base, int64(len(pb.data)))
		segs = append(segs, pb.data[lo:hi])
		base += bs
	}
	return segs
}

// releasePins drops the references pinRange took and clears their slots.
func releasePins(pins []*payloadBuf) {
	for k, pb := range pins {
		pb.release()
		pins[k] = nil
	}
}

// span is one home request of a read: count blocks from first, of which
// the ones marked in wanted (bit i: block first+i) are missing here.
type span struct {
	first  int32
	count  int
	wanted uint32
}

// blocks is the number of wanted blocks, the window slots the span holds.
func (s span) blocks() int { return bits.OnesCount32(s.wanted) }

// planSpans groups the missing block indices (ascending) into spans of at
// most readWindow wanted blocks within maxRunBlocks of the span's first.
func planSpans(missing []int32) []span {
	var spans []span
	for k := 0; k < len(missing); {
		s := span{first: missing[k]}
		j := k
		for j < len(missing) && j-k < readWindow && missing[j]-s.first < maxRunBlocks {
			s.wanted |= 1 << uint(missing[j]-s.first)
			j++
		}
		s.count = int(missing[j-1]-s.first) + 1
		spans = append(spans, s)
		k = j
	}
	return spans
}

// fetchSpans executes a plan for a read whose pins start at block base,
// filling the slot of every wanted block. A plan of one span — the common case — runs on the caller's
// goroutine. The spans of a longer plan go out together, each holding one
// window slot per wanted block, so a read waits for the slowest span and not
// for their sum. Spans start in plan order; after the first failure none
// starts and that failure is returned.
func (n *Node) fetchSpans(f block.FileID, size int64, spans []span, pins []*payloadBuf, base int32) error {
	if len(spans) == 1 {
		return n.execSpan(f, size, spans[0], pins, base)
	}
	w := newWindow()
	for _, s := range spans {
		if !w.start(s.blocks(), func() error { return n.execSpan(f, size, s, pins, base) }) {
			break
		}
	}
	return w.wait()
}

// execSpan fetches one span: a span of several blocks in one home request
// (fetchHomeSpan), whose named blocks come from their holders as peer runs
// (fetchPeerRun); a span of one block, and whatever is left, through the
// per-block getBlock path, which carries the full §3 race and fault
// semantics and coalesces concurrent misses. A degraded span costs latency,
// never an error.
func (n *Node) execSpan(f block.FileID, size int64, s span, pins []*payloadBuf, base int32) error {
	codes := []int32{dirNoEntry}
	if s.blocks() > 1 {
		codes = n.fetchHomeSpan(f, size, s, pins[s.first-base:])
	}
	for k := 0; k < s.count; {
		if s.wanted&(1<<uint(k)) == 0 || codes[k] == homeServed {
			k++
			continue
		}
		h, j := codes[k], k+1
		for h >= 0 && j < s.count && codes[j] == h {
			j++
		}
		i, end := s.first+int32(k), s.first+int32(j)
		if h >= 0 && j-k > 1 {
			i += int32(n.fetchPeerRun(f, size, int(h), i, j-k, pins[i-base:]))
		}
		for ; i < end; i++ {
			pb, err := n.getBlock(block.ID{File: f, Idx: i}, size, h)
			if err != nil {
				return err
			}
			pins[i-base] = pb
		}
		k = j
	}
	return nil
}

// fetchHomeSpan asks f's home for span s and installs what it served, one
// access each: a disk read where this node became the master, a remote hit
// for the home's cached master. Each installed block is also pinned in
// pins, whose slot 0 is block s.first. It returns the per-block codes,
// every one dirNoEntry after a failed or malformed reply.
func (n *Node) fetchHomeSpan(f block.FileID, size int64, s span, pins []*payloadBuf) []int32 {
	n.c.runsIssued.Add(1)
	r, home, err := n.askHome(f, size, s, false)
	if err != nil {
		r.codes = make([]int32, s.count)
		for k := range r.codes {
			r.codes[k] = dirNoEntry
		}
	}
	resolved, j := 0, 0
	for k, c := range r.codes {
		if c != homeServed {
			if c >= 0 {
				resolved++
			}
			continue
		}
		pb := r.blocks[j]
		j++
		pins[k] = pb.retain()
		n.c.accesses.Add(1)
		if r.masters&(1<<uint(k)) != 0 {
			n.c.diskReads.Add(1)
		} else {
			n.c.remoteHits.Add(1)
		}
		n.insertBlockBuf(block.ID{File: f, Idx: s.first + int32(k)}, pb, r.masters&(1<<uint(k)) != 0) // takes the reply's reference
		resolved++
	}
	if resolved < s.blocks() {
		n.c.runsDegraded.Add(1)
	}
	n.runBlocks.Observe(int64(j))
	n.trace(traceRunFetch, home, block.ID{File: f, Idx: s.first}, int64(j))
	return r.codes
}

// homeReply is a home's answer to a span: per block a holder, homeServed or
// dirNoEntry; the served blocks in index order; and masters, the blocks
// read from the source, whose master the requester now is.
type homeReply struct {
	codes   []int32
	blocks  []*payloadBuf
	masters uint32
}

// serveHome answers a home miss for requester. Per wanted block of s it
// names the master's holder from the directory, serves its own cached
// master, or reads the source and then records requester as the master;
// force skips the first two, and nothing is recorded by a node that does
// not home f (a ring successor) or for a requester < 0 (the rebalance
// pull). A failed source read ends the reads and leaves the rest to the
// requester's per-block path; with nothing served or named it is the answer.
func (n *Node) serveHome(f block.FileID, s span, requester int32, force bool) (homeReply, error) {
	self := int32(n.cfg.ID)
	claims := requester >= 0 && n.homes(f)
	r := homeReply{codes: make([]int32, s.count)}
	var holders []int32
	if claims && !force {
		holders = n.dirSrv.lookupN(f, s.first, s.count, make([]int32, 0, s.count))
	}
	bufs := make([]*payloadBuf, s.count)
	var read []int32
	for k := range r.codes {
		r.codes[k] = dirNoEntry
		if s.wanted&(1<<uint(k)) == 0 {
			continue
		}
		i := s.first + int32(k)
		if holders != nil {
			switch m := holders[k]; {
			case m == self && requester != self:
				run, masters := n.store.GetRun(f, i, 1, nil)
				if masters == 1 {
					bufs[k], r.codes[k] = run[0], homeServed
					continue
				}
				for _, pb := range run {
					pb.release() // a copy is no master: the entry is stale
				}
			case m >= 0 && m != self && m != requester:
				r.codes[k] = m
				continue
			}
		}
		read = append(read, i)
	}
	if len(read) > 0 {
		n.ensureMigrated(f) // a home that just moved here pulls first
		data, err := n.readSource(f, read)
		if len(data) == 0 && len(read) == s.blocks() {
			return homeReply{}, err // nothing served or named
		}
		for j, b := range data {
			k := read[j] - s.first
			bufs[k], r.codes[k] = newPayloadBuf(b), homeServed
			r.masters |= 1 << uint(k)
		}
		if claims && len(data) > 0 {
			n.dirSrv.updateN(f, read[:len(data)], requester)
		}
	}
	for _, pb := range bufs {
		if pb != nil {
			r.blocks = append(r.blocks, pb)
		}
	}
	return r, nil
}

// readSource reads blocks idxs of f from this node's backing source, at
// most readWindow at a time, and returns the leading blocks that read
// without error, with the error that ended the prefix. A k-block miss then
// waits one source latency and not k. One block is a plain call.
func (n *Node) readSource(f block.FileID, idxs []int32) ([][]byte, error) {
	if len(idxs) == 1 {
		data, err := n.cfg.Source.ReadBlock(f, idxs[0])
		if err != nil {
			return nil, err
		}
		return [][]byte{data}, nil
	}
	blocks := make([][]byte, len(idxs))
	w := newWindow()
	for k, i := range idxs {
		started := w.start(1, func() (err error) {
			blocks[k], err = n.cfg.Source.ReadBlock(f, i)
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

// askHome runs span s at f's home (homeAt). An unreachable home degrades to
// its ring successor, which inherits the file once the failure becomes a
// membership change, so reads stay error-free through a crash. It also
// reports the node that answered.
func (n *Node) askHome(f block.FileID, size int64, s span, force bool) (homeReply, int, error) {
	home, err := n.home(f)
	if err != nil {
		return homeReply{}, -1, err
	}
	r, err := n.homeAt(home, f, size, s, force)
	if err != nil && isTransient(err) {
		if succ, ok := n.ringSuccessor(f, home); ok {
			n.c.homeFallbacks.Add(1)
			n.trace(traceHomeFallback, home, block.ID{File: f, Idx: s.first}, 1)
			home = succ
			r, err = n.homeAt(succ, f, size, s, force)
		}
	}
	return r, home, err
}

// homeAt runs span s's home request at node: serveHome here, else one
// MsgGetRun, retried (a restarting home comes back), whose reply is split
// into per-block pooled copies, so one live block never pins the reply.
func (n *Node) homeAt(node int, f block.FileID, size int64, s span, force bool) (homeReply, error) {
	self := int32(n.cfg.ID)
	if node == n.cfg.ID {
		return n.serveHome(f, s, self, force)
	}
	req := getFrame()
	req.Type, req.File, req.Idx, req.Aux = MsgGetRun, f, s.first, packRunAux(s.count, s.wanted)
	if force {
		req.Flags = FlagMaster
	}
	resp, err := n.reliableRPC(node, req, n.retries)
	releaseFrame(req)
	if err != nil {
		return homeReply{}, err
	}
	defer releaseFrame(resp)
	lens := func(i int32) int { return blockLen(n.geom, size, i) }
	codes, body, err := decodeHomeReply(resp.Aux, resp.Payload, s, lens, self)
	if err != nil {
		return homeReply{}, err
	}
	r := homeReply{codes: codes}
	_, r.masters = unpackRunAux(resp.Aux)
	for k, c := range codes {
		if c == homeServed {
			pb := newPooledPayloadBuf(lens(s.first + int32(k)))
			body = body[copy(pb.data, body):]
			r.blocks = append(r.blocks, pb)
		}
	}
	return r, nil
}

// fetchPeerRun fetches count blocks from first as one peer run from src,
// their named holder, and installs the prefix src served as copies, one
// remote hit each, pinning each in pins (slot 0: block first). It returns
// the prefix length.
func (n *Node) fetchPeerRun(f block.FileID, size int64, src int, first int32, count int, pins []*payloadBuf) int {
	req := getFrame()
	req.Type, req.File, req.Idx, req.Aux = MsgGetRun, f, first, packRunAux(count, 0)
	n.c.runsIssued.Add(1)
	resp, err := n.reliableRPC(src, req, 0)
	releaseFrame(req)
	served := 0
	if err == nil {
		if k, _ := unpackRunAux(resp.Aux); resp.Type == MsgRunData && k <= count {
			expect := 0
			for i := 0; i < k; i++ {
				expect += blockLen(n.geom, size, first+int32(i))
			}
			if len(resp.Payload) == expect {
				blocks := make([]*payloadBuf, 0, k)
				off := 0
				for i := first; i < first+int32(k); i++ {
					l := blockLen(n.geom, size, i)
					// One pool-backed copy per block: splitting the multi-block
					// response means one live block never pins the whole run's
					// payload, and eviction recycles each block independently.
					pb := newPooledPayloadBuf(l)
					copy(pb.data, resp.Payload[off:off+l])
					off += l
					pins[i-first] = pb.retain()
					n.c.accesses.Add(1)
					n.c.remoteHits.Add(1)
					blocks = append(blocks, pb)
				}
				for _, ev := range n.store.InsertRun(f, first, blocks, false) {
					n.dispatchEvicted(ev)
				}
				served = k
			}
		}
		releaseFrame(resp)
	}
	if served < count {
		n.c.runsDegraded.Add(1)
	}
	n.runBlocks.Observe(int64(served))
	n.trace(traceRunFetch, src, block.ID{File: f, Idx: first}, int64(served))
	return served
}

// GetBlock returns the content of one block, implementing the §3 protocol:
// local cache, then the master copy the file's home names, then a master
// read through the home. Concurrent misses for the same block coalesce into
// one fetch. The returned slice is the caller's own copy.
func (n *Node) GetBlock(id block.ID) ([]byte, error) {
	size, err := n.cfg.Source.FileSize(id.File)
	if err != nil {
		return nil, err
	}
	pb, err := n.getBlock(id, size, dirNoEntry)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(pb.data))
	copy(out, pb.data)
	pb.release()
	return out, nil
}

// getBlock is the shared per-block fetch path of a block of a size-byte
// file. It returns a pinned reference to the block payload — the caller
// must release it, and until then eviction cannot recycle the bytes. holder is
// the master's holder a home reply named (dirNoEntry: ask the home); it
// serves the first fetch only, a fetch after a coalesced wait asks again.
func (n *Node) getBlock(id block.ID, size int64, holder int32) (*payloadBuf, error) {
	for {
		n.c.accesses.Add(1)
		if pb, ok := n.store.GetRef(id); ok {
			n.c.localHits.Add(1)
			return pb, nil
		}
		// Coalesce concurrent fetches of the same block.
		sh := n.pendingShard(id)
		sh.mu.Lock()
		if ch, inflight := sh.waiting[id]; inflight {
			sh.mu.Unlock()
			<-ch
			// Re-check the cache; if the block was already evicted again
			// (or the fetch failed), loop and fetch for ourselves.
			holder = dirNoEntry
			continue
		}
		ch := make(chan struct{})
		sh.waiting[id] = ch
		sh.mu.Unlock()

		pb, err := n.fetchBlock(id, size, holder)

		sh.mu.Lock()
		delete(sh.waiting, id)
		sh.mu.Unlock()
		close(ch)
		if err != nil {
			return nil, err
		}
		return pb, nil
	}
}

// fetchBlock obtains a missing block from the file's home (homeBlock) or
// from the holder it named. A peer cache fetch gets exactly one attempt
// (breaker-gated): its retry is the home's source read, which keeps a block
// fetch bounded by roughly RPCTimeout × (Retries + 1) even when the named
// master is dead. The returned payload is pinned for the caller (one
// reference), with a second reference handed to the store by the install.
func (n *Node) fetchBlock(id block.ID, size int64, holder int32) (*payloadBuf, error) {
	if holder == dirNoEntry {
		pb, named, err := n.homeBlock(id, size, false)
		if pb != nil || err != nil {
			return pb, err
		}
		holder = named
	}
	pb, err := n.getOne(int(holder), id)
	if pb != nil {
		n.c.remoteHits.Add(1)
		n.insertBlockBuf(id, pb.retain(), false)
		return pb, nil
	}
	// The master vanished while the request traveled (§3's tolerated race)
	// or the peer is down: the home's source read records this node in place
	// of the stale entry, in the same message.
	n.c.raceMisses.Add(1)
	if isTransient(err) {
		n.c.staleDrops.Add(1)
		n.c.homeFallbacks.Add(1)
		n.trace(traceStaleDrop, int(holder), id, 0)
		n.trace(traceHomeFallback, int(holder), id, 0)
	}
	pb, _, err = n.homeBlock(id, size, true)
	return pb, err
}

// homeBlock asks id's home for the block (force: from the source, whatever
// the directory says) and installs it — a disk read as the master, a remote
// hit as a copy of the home's master — or returns the holder it named.
func (n *Node) homeBlock(id block.ID, size int64, force bool) (*payloadBuf, int32, error) {
	r, home, err := n.askHome(id.File, size, span{first: id.Idx, count: 1, wanted: 1}, force)
	if err != nil {
		return nil, 0, err
	}
	if c := r.codes[0]; c != homeServed {
		if c < 0 || force {
			return nil, 0, fmt.Errorf("middleware: home %d served no block for %v", home, id)
		}
		return nil, c, nil
	}
	pb := r.blocks[0]
	if r.masters == 1 {
		n.c.diskReads.Add(1)
	} else {
		n.c.remoteHits.Add(1)
	}
	n.insertBlockBuf(id, pb.retain(), r.masters == 1)
	return pb, 0, nil
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

// getOne fetches block id from node `to`'s cache as a peer run of one
// block. A nil payload with a nil error is a miss: the node answered but
// holds no copy.
func (n *Node) getOne(to int, id block.ID) (*payloadBuf, error) {
	req := getFrame()
	req.Type, req.File, req.Idx, req.Aux = MsgGetRun, id.File, id.Idx, packRunAux(1, 0)
	resp, err := n.reliableRPC(to, req, 0)
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

// insertBlockBuf caches a payload the caller holds a reference on (the
// store takes that reference) and handles the eviction it may cause: a
// displaced master gets the §3 second chance — forwarded to the peer whose
// (piggyback-known) oldest block is older, dropped if it is the globally
// oldest.
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

// forwardEvicted gives an evicted master its §3 second chance. The entry
// moves by compare-and-set from this node to the target before the block
// ships, so a newer claim survives and the target's own later eviction of
// the block finds its name; a refused forward drops that name again.
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
		n.dirCAS(ev.ID, self, dirNoEntry)
		return
	}
	n.dirCAS(ev.ID, self, int32(target))
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
		n.dirCAS(ev.ID, int32(target), dirNoEntry)
		return
	}
	n.c.forwards.Add(1)
	n.trace(traceForward, target, ev.ID, 1)
}
