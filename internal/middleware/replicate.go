package middleware

import (
	"encoding/binary"
	"sync"

	"repro/internal/block"
)

// Adaptive replication (this file) extends the §3 protocol for skewed and
// non-stationary workloads: a single master copy of a suddenly popular
// block turns its holder into a hot spot, so when the epoch-decayed access
// score of a master crosses Config.ReplicateThreshold, its holder
// proactively pushes copies to Config.ReplicaFanout ring successors. The
// block's directory manager tracks the copy set and rotates lookup answers
// across master and replicas, spreading the serve load; write invalidation
// already reaches every node, so a write clears the copy set for free. With
// ReplicateThreshold = 0 (the default) none of this machinery engages and
// the protocol is byte-identical to the single-master path.

// replicaSets tracks, at a block's directory manager, which nodes hold
// pushed replicas of it. The set is advisory: a stale entry costs one
// failed peer fetch (the §3 race path repairs it), never correctness.
type replicaSets struct {
	mu sync.Mutex
	m  map[block.ID][]int32
}

func newReplicaSets() *replicaSets {
	return &replicaSets{m: make(map[block.ID][]int32)}
}

// add records node as a replica holder of id; reports whether the set
// changed.
func (r *replicaSets) add(id block.ID, node int32) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range r.m[id] {
		if n == node {
			return false
		}
	}
	r.m[id] = append(r.m[id], node)
	return true
}

// drop removes node from id's replica set; reports whether it was present.
func (r *replicaSets) drop(id block.ID, node int32) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	set := r.m[id]
	for i, n := range set {
		if n == node {
			set[i] = set[len(set)-1]
			set = set[:len(set)-1]
			if len(set) == 0 {
				delete(r.m, id)
			} else {
				r.m[id] = set
			}
			return true
		}
	}
	return false
}

// clear forgets id's replica set entirely (write invalidation); reports
// whether the set was non-empty — a non-empty set torn down means the block
// was replication-hot a moment ago.
func (r *replicaSets) clear(id block.ID) bool {
	r.mu.Lock()
	_, had := r.m[id]
	delete(r.m, id)
	r.mu.Unlock()
	return had
}

// clearAll forgets every replica set (truncated invalidation catch-up: the
// manager can no longer vouch for any copy set it tracked).
func (r *replicaSets) clearAll() {
	r.mu.Lock()
	r.m = make(map[block.ID][]int32)
	r.mu.Unlock()
}

// pick rotates a lookup answer across the master and id's replicas, never
// answering with the requester itself (its own cache already missed). With
// an empty set the master comes back unchanged, so disabled replication is
// indistinguishable from the pre-replication directory.
func (r *replicaSets) pick(id block.ID, master, requester int32, draw uint32) int32 {
	r.mu.Lock()
	set := r.m[id]
	var cands [1 + maxReplicaFanout]int32
	n := 0
	if master != requester {
		cands[n] = master
		n++
	}
	for _, c := range set {
		if c != requester && c != master && n < len(cands) {
			cands[n] = c
			n++
		}
	}
	r.mu.Unlock()
	if n == 0 {
		return master
	}
	return cands[draw%uint32(n)]
}

// len reports the number of blocks with a non-empty replica set.
func (r *replicaSets) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.m)
}

// maxReplicaFanout bounds Config.ReplicaFanout (and sizes pick's on-stack
// candidate array).
const maxReplicaFanout = 8

// observeServe feeds the hotness tracker after this node served a master
// copy to a peer, and triggers a replica push when the score crosses the
// threshold (at most once per cooldown window, so a sustained flash crowd
// does not re-push every serve).
func (n *Node) observeServe(id block.ID) {
	if n.hot == nil {
		return
	}
	if n.hot.Observe(hotKey(id)) < n.repThreshold {
		return
	}
	if !n.pushAllowed(id) {
		return
	}
	go n.pushReplicas(id)
}

// pushAllowed claims the push slot for id unless one ran within the last
// replicaCooldownEpochs epochs. resetCooldown reopens it (after a write
// reinstalls fresh content, the copies must spread again immediately).
func (n *Node) pushAllowed(id block.ID) bool {
	epoch := n.hot.Epoch()
	n.repMu.Lock()
	defer n.repMu.Unlock()
	if last, ok := n.repCool[id]; ok && epoch < last+replicaCooldownEpochs {
		return false
	}
	n.repCool[id] = epoch
	return true
}

// replicaCooldownEpochs is the minimum epochs between replica pushes of the
// same block from the same holder. A push round spreads the full fanout, so
// while the copy set is intact re-pushing is pure overhead (payload resends
// into a complete set); the window is therefore long — spanning a sustained
// hot period — and the events that genuinely need an immediate re-spread
// (write invalidation reinstalling fresh content) bypass it via
// resetCooldown or the manager's repush tombstone.
const replicaCooldownEpochs = 20

// pushReplicas ships copies of a hot master to the node's ring successors
// and registers the accepted ones with the block's manager. Best effort
// throughout: a failed push (dead peer, open breaker) just means one fewer
// replica, and the §3 protocol never depends on a replica existing.
func (n *Node) pushReplicas(id block.ID) {
	// The stamp is read BEFORE the data: if an invalidation lands between
	// the two, the stamp is older than the receivers' and the push is
	// rejected (stale stamp + fresh data fails safe; the reverse order
	// could pair a fresh stamp with stale data and win).
	stamp := n.invalStamp(id)
	pb, ok := n.store.GetRef(id)
	if !ok {
		return
	}
	defer pb.release() // pinned across every push write in the round
	if !n.store.IsMaster(id) {
		return // lost mastership while the push was queued
	}
	size := n.clusterSize()
	fanout := n.repFanout
	if fanout > size-1 {
		fanout = size - 1
	}
	v := n.viewRef()
	var accepted [maxReplicaFanout]int32
	nAccepted := 0
	for k := 0; k < fanout; k++ {
		target := (n.cfg.ID + 1 + k) % size
		if target == n.cfg.ID || (v != nil && !v.reachable(target)) {
			continue
		}
		req := getFrame()
		req.Type, req.File, req.Idx = MsgReplicate, id.File, id.Idx
		req.Aux = int64(stamp) // orders the push against bus invalidations
		req.Payload = pb.data  // pinned by the GetRef above
		resp, err := n.reliableRPC(target, req, 0)
		req.Payload = nil
		releaseFrame(req)
		if err != nil {
			continue
		}
		ok := resp.Flags != 0
		releaseFrame(resp)
		if !ok {
			continue
		}
		n.c.replicasPushed.Add(1)
		n.trace(traceReplicate, target, id, 1)
		accepted[nAccepted] = int32(target)
		nAccepted++
	}
	if nAccepted == 0 {
		return
	}
	if !n.store.IsMaster(id) {
		// A write invalidated the block mid-push: the copy set was torn
		// down, so the just-pushed (now stale) copies must not enter it.
		return
	}
	// One registration RPC per push round, not per copy: the per-round
	// coordination cost is what the push must earn back in saved fetches,
	// and halving it moves the break-even from ~2 replica hits per push
	// toward ~1.5.
	n.replicaOps(id, accepted[:nAccepted], true, stamp)
}

// replicaOps records (add) or retires (drop) a batch of replica holders in
// id's set at the block's manager — directly when this node is the manager,
// else via one best-effort MsgReplicaOp carrying the holders in its payload
// and, for adds, the pusher's invalidation stamp in Aux: a registration
// whose stamp predates an invalidation the manager already applied is
// refused, so a racing push can never revive a just-torn-down copy set.
func (n *Node) replicaOps(id block.ID, nodes []int32, add bool, stamp uint64) {
	mgr, err := n.home(id.File) // the directory manager: lookups rotate where they land
	if err != nil {
		return
	}
	if mgr == n.cfg.ID {
		if add && stampNewer(n.invalStamp(id), stamp) {
			return
		}
		for _, node := range nodes {
			if add {
				n.reps.add(id, node)
			} else {
				n.reps.drop(id, node)
			}
		}
		return
	}
	req := getFrame()
	req.Type, req.File, req.Idx = MsgReplicaOp, id.File, id.Idx
	buf := make([]byte, 4*len(nodes))
	for i, node := range nodes {
		binary.BigEndian.PutUint32(buf[4*i:], uint32(node))
	}
	req.Payload = buf
	if add {
		req.Flags = FlagMaster
		req.Aux = int64(stamp)
	} else {
		req.Aux = int64(nodes[0])
	}
	resp, err := n.reliableRPC(mgr, req, 0)
	releaseFrame(req)
	if err == nil {
		releaseFrame(resp)
	}
}

// retireReplica drops an evicted replica from its manager's set so lookups
// stop rotating to a holder that no longer has the block (stale sets still
// only cost a race miss, this just avoids the common case).
func (n *Node) retireReplica(id block.ID) {
	n.replicaOps(id, []int32{int32(n.cfg.ID)}, false, 0)
}

// markRepush tombstones a block whose replica set an invalidation just tore
// down: the next mastership claim the manager sees re-triggers replication
// (maybeRepush), so a written-to hot block re-replicates immediately instead
// of waiting for its serve rate to re-cross the threshold. The chain decays
// naturally: once a block cools, its replicas stop being touched, fall out
// of the LRU, and the next write finds an empty set — no tombstone.
func (n *Node) markRepush(id block.ID) {
	epoch := n.hot.Epoch()
	n.repMu.Lock()
	n.repHot[id] = epoch
	n.repMu.Unlock()
}

// repushTTL bounds tombstone staleness: a mastership claim arriving more
// than this many epochs after the invalidation means the block is not being
// re-read at flash-crowd rates, so re-replicating it is not worth a push
// round.
const repushTTL = 5

// maybeRepush runs at the directory manager when node claims mastership of
// id: if the block carries a fresh repush tombstone, ask the new master to
// push replicas. At most one repush per block fires per epoch — a
// write-heavy hot block is otherwise re-pushed on every write, and with
// writes milliseconds apart each pushed copy is invalidated before it
// serves a single read (measured: the push traffic alone erased the
// adaptive layer's whole margin).
func (n *Node) maybeRepush(id block.ID, holder int32) {
	if n.hot == nil {
		return
	}
	epoch := n.hot.Epoch()
	n.repMu.Lock()
	arm, armed := n.repHot[id]
	if armed {
		delete(n.repHot, id)
	}
	fire := armed && epoch <= arm+repushTTL && n.repLast[id] <= epoch
	if fire {
		n.repLast[id] = epoch + 1
	}
	n.repMu.Unlock()
	if !fire {
		return
	}
	if int(holder) == n.cfg.ID {
		n.claimPush(id)
		go n.pushReplicas(id)
		return
	}
	go func() {
		req := getFrame()
		req.Type, req.File, req.Idx = MsgRepush, id.File, id.Idx
		resp, err := n.reliableRPC(int(holder), req, 0)
		releaseFrame(req)
		if err == nil {
			releaseFrame(resp)
		}
	}()
}

// claimPush marks a push round as started now, so serve-driven promotion
// (observeServe) does not immediately duplicate a manager-ordered repush.
func (n *Node) claimPush(id block.ID) {
	epoch := n.hot.Epoch()
	n.repMu.Lock()
	n.repCool[id] = epoch
	n.repMu.Unlock()
}

// handleRepush is the master-holder side of MsgRepush. The manager already
// rate-limited the repush, so the cooldown is claimed, not consulted.
func (n *Node) handleRepush(f *Frame) *Frame {
	id := f.ID()
	if n.hot != nil && n.store.IsMaster(id) {
		n.claimPush(id)
		go n.pushReplicas(id)
	}
	return ackFrame()
}

// handleReplicate installs a pushed replica copy — unless this node has
// already applied a bus invalidation newer than the push's stamp (Aux), in
// which case the payload is stale and the push is refused (Flags=0): the
// write that tore the copy set down must win over the in-flight push.
func (n *Node) handleReplicate(f *Frame) *Frame {
	id := f.ID()
	if stampNewer(n.invalStamp(id), uint64(f.Aux)) {
		r := getFrame()
		r.Type, r.File, r.Idx = MsgAck, f.File, f.Idx
		return r // Flags=0: rejected
	}
	// The store keeps the pushed copy: take the refcounted buffer from the
	// frame, pooled backing and all, so an eventual eviction recycles it.
	if ev := n.store.InsertReplicaBuf(id, f.TakePayloadBuf()); ev != nil {
		n.dispatchEvicted(ev)
	}
	r := getFrame()
	r.Type, r.Flags, r.File, r.Idx = MsgAck, 1, f.File, f.Idx
	return r
}

// handleReplicaOp maintains the replica set at this (manager) node. A
// payload, when present, carries a whole push round's holders (4 bytes
// big-endian each) with the pusher's invalidation stamp in Aux for adds;
// a bare Aux names the single holder (legacy encoding, stamp zero). An add
// whose stamp predates an applied invalidation is refused whole — see
// replicaOps.
func (n *Node) handleReplicaOp(f *Frame) *Frame {
	id := f.ID()
	add := f.Flags&FlagMaster != 0
	apply := func(node int32) {
		if add {
			n.reps.add(id, node)
		} else {
			n.reps.drop(id, node)
		}
	}
	if len(f.Payload) >= 4 {
		if add && stampNewer(n.invalStamp(id), uint64(f.Aux)) {
			return ackFrame()
		}
		for off := 0; off+4 <= len(f.Payload); off += 4 {
			apply(int32(binary.BigEndian.Uint32(f.Payload[off:])))
		}
	} else {
		apply(int32(f.Aux))
	}
	return ackFrame()
}

// dispatchEvicted routes one store eviction: displaced masters get their §3
// second chance (forwarding), displaced replicas are retired from their
// manager's set. Both run off the serving goroutine.
func (n *Node) dispatchEvicted(ev *Evicted) {
	if ev.Master {
		go n.forwardEvicted(ev)
	} else if ev.Replica {
		go n.retireReplica(ev.ID)
	}
}
