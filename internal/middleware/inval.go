package middleware

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
)

// This file is the asynchronous invalidation bus of the §6 write protocol.
//
// A write that blocked on a point-to-point invalidate fan-out would put
// one slow peer's RPC timeout directly on the writer's critical path (the
// measured reason is the PR 7 table in DESIGN.md). With the bus, a write
// appends one sequenced invalidation record locally and returns after
// the local invalidate + durable write-through; persistent per-peer sender
// loops drain the record history in the background with batched
// MsgInvalidateN frames, coalescing back-to-back writes to the same block.
//
// Correctness becomes bounded staleness instead of immediate invalidation:
//   - The writer reads its own write immediately (local invalidate + master
//     insert happen before WriteBlock returns; the client pins reads of a
//     written file to the write's entry node).
//   - Every peer applies each origin's records in sequence order. A peer
//     that observes a sequence gap (frames lost, breaker-healed reconnect)
//     issues a MsgInvalSince catch-up RPC instead of serving stale forever.
//   - The origin's record history is bounded (invalHistory); a peer so far
//     behind that its range fell off the ring is told to flush its whole
//     cache (truncated catch-up reply) — the bounded queue's backpressure
//     degrades to "start over", never to unbounded memory or a blocked
//     writer.
//
// A failed sender delivery attempt counts one InvalidateSkips, so "how
// stale could a peer be" is observable (together with the
// cc_inval_lag_seconds histogram and the cc_inval_bus_depth gauge).

// invalHistory is the bounded per-origin record history: deep enough that a
// peer only loses the range during a long partition (at which point a full
// flush is the right repair), shallow enough to bound memory (16 bytes per
// record).
const invalHistory = 4096

// invalRec is one sequenced invalidation record. Its sequence number is
// implied by its ring position (see invalBus.collect).
type invalRec struct {
	id block.ID
	at int64 // publish time, unix nanos (feeds the lag histogram)
}

// invalSender is the persistent sender loop state for one peer.
type invalSender struct {
	peer   int
	notify chan struct{} // cap 1: publish wake-up, coalesced
	next   uint64        // next sequence to send (sender-loop private)
	acked  atomic.Uint64 // last sequence the peer acknowledged
	dead   atomic.Bool   // peer promoted to dead: stop delivering, count as drained
	buf    []byte        // reusable MsgInvalidateN payload buffer
}

// invalBus is a node's outgoing invalidation state: the bounded record
// history plus one sender loop per peer.
type invalBus struct {
	n *Node

	mu      sync.Mutex
	ring    [invalHistory]invalRec
	start   int    // ring index of the oldest retained record
	count   int    // retained records
	head    uint64 // sequence of the newest record (0: none published yet)
	stopped bool

	senders []*invalSender
	stop    chan struct{}
}

// newInvalBus builds the bus and starts one sender loop per peer.
func newInvalBus(n *Node, clusterSize int) *invalBus {
	b := &invalBus{n: n, stop: make(chan struct{})}
	for i := 0; i < clusterSize; i++ {
		if i == n.cfg.ID {
			continue
		}
		s := &invalSender{peer: i, notify: make(chan struct{}, 1), next: 1}
		b.senders = append(b.senders, s)
		go b.senderLoop(s)
	}
	return b
}

// shutdown stops the sender loops. Unsent records are abandoned: the peers'
// gap detection (or their next read's freshness fetch) repairs them.
func (b *invalBus) shutdown() {
	b.mu.Lock()
	if !b.stopped {
		b.stopped = true
		close(b.stop)
	}
	b.mu.Unlock()
}

// publish appends one invalidation record and wakes the senders (a no-op
// after shutdown).
func (b *invalBus) publish(id block.ID) {
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		return
	}
	b.head++
	idx := (b.start + b.count) % invalHistory
	if b.count == invalHistory {
		b.start = (b.start + 1) % invalHistory // overwrite the oldest
	} else {
		b.count++
	}
	b.ring[idx] = invalRec{id: id, at: time.Now().UnixNano()}
	senders := b.senders // resize appends concurrently: snapshot under mu
	b.mu.Unlock()
	for _, s := range senders {
		select {
		case s.notify <- struct{}{}:
		default: // already signalled; the loop drains to head anyway
		}
	}
}

// resize grows the sender set to cover a membership view of clusterSize
// slots. Existing senders (and their sequence state) are untouched — an
// origin's per-peer sequences survive every home move, which is what keeps
// receivers' gap detection sound across a resize. A sender that joins
// mid-stream owes nothing for history published before it existed: it
// starts acknowledged up to the current head.
func (b *invalBus) resize(clusterSize int) {
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		return
	}
	have := make(map[int]bool, len(b.senders))
	for _, s := range b.senders {
		have[s.peer] = true
	}
	var started []*invalSender
	for i := 0; i < clusterSize; i++ {
		if i == b.n.cfg.ID || have[i] {
			continue
		}
		s := &invalSender{peer: i, notify: make(chan struct{}, 1), next: b.head + 1}
		s.acked.Store(b.head)
		b.senders = append(b.senders, s)
		started = append(started, s)
	}
	b.mu.Unlock()
	for _, s := range started {
		go b.senderLoop(s)
	}
}

// markDead tells the sender for a dead peer to stop delivering. The peer's
// backlog is unrecoverable (it will flush and catch up if it ever returns);
// a dead sender counts as drained so FlushInval and the depth gauge are not
// wedged forever by a corpse.
func (b *invalBus) markDead(peer int) {
	b.mu.Lock()
	senders := b.senders
	b.mu.Unlock()
	for _, s := range senders {
		if s.peer != peer {
			continue
		}
		s.dead.Store(true)
		select {
		case s.notify <- struct{}{}:
		default:
		}
	}
}

// collect builds the next batch for a sender starting at sequence `from`:
// up to maxInvalBatch distinct block IDs covering the consecutive sequence
// window [first, last] (back-to-back writes of the same block coalesce into
// one record; the window stays consecutive, so receivers track one applied
// high-water mark per origin). `at` is the publish time of the last covered
// record. A `from` below the retained floor is clamped to it — the receiver
// sees the jump as a gap and catches up. An empty batch means drained.
func (b *invalBus) collect(from uint64, out []block.ID, seen map[block.ID]struct{}) (first, last uint64, at int64, batch []block.ID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	out = out[:0]
	if b.count == 0 || from > b.head {
		return 0, 0, 0, out
	}
	floor := b.head - uint64(b.count) + 1
	if from < floor {
		from = floor
	}
	clear(seen)
	first, last = from, from-1
	for q := from; q <= b.head && len(out) < maxInvalBatch; q++ {
		rec := b.ring[(b.start+int(q-floor))%invalHistory]
		last, at = q, rec.at
		if _, dup := seen[rec.id]; dup {
			continue
		}
		seen[rec.id] = struct{}{}
		out = append(out, rec.id)
	}
	return first, last, at, out
}

// depth reports the deepest unacknowledged backlog across peers (the
// cc_inval_bus_depth gauge).
func (b *invalBus) depth() uint64 {
	b.mu.Lock()
	head := b.head
	senders := b.senders
	b.mu.Unlock()
	var deepest uint64
	for _, s := range senders {
		if s.dead.Load() {
			continue
		}
		if d := head - min(s.acked.Load(), head); d > deepest {
			deepest = d
		}
	}
	return deepest
}

// drained reports whether every peer has acknowledged every record
// published before the call.
func (b *invalBus) drained() bool {
	b.mu.Lock()
	head := b.head
	senders := b.senders
	b.mu.Unlock()
	for _, s := range senders {
		if s.dead.Load() {
			continue
		}
		if s.acked.Load() < head {
			return false
		}
	}
	return true
}

// senderLoop drains the bus toward one peer: batched MsgInvalidateN frames,
// retried forever with capped backoff (a failed attempt counts one
// InvalidateSkips: this peer's staleness window grew by one delivery
// attempt). The backoff cap stretches to the breaker cooldown so a dead
// peer costs about two probe attempts per cooldown, not a hot retry loop.
func (b *invalBus) senderLoop(s *invalSender) {
	n := b.n
	recs := make([]block.ID, 0, maxInvalBatch)
	seen := make(map[block.ID]struct{}, maxInvalBatch)
	backoff := defaultRetryBackoff
	backoffCap := max(retryBackoffCap, n.tol.cooldown)
	for {
		select {
		case <-b.stop:
			return
		case <-s.notify:
		}
		for {
			if s.dead.Load() {
				break // the peer is gone; markDead made drained() ignore us
			}
			// Send from the acked mark, not the sent mark: a peer that
			// answered a batch with a gap-ack (it went off to catch up)
			// still owes acknowledgements for the unacked window, and with
			// no further publishes there would be no later frame to carry
			// them. Resends are idempotent — the peer skips windows at or
			// below its applied mark.
			from := s.next
			if a := s.acked.Load(); a+1 < from {
				from = a + 1
			}
			first, last, at, batch := b.collect(from, recs, seen)
			recs = batch
			if len(batch) == 0 {
				break // drained; sleep until the next publish
			}
			req := getFrame()
			req.Type = MsgInvalidateN
			req.Aux = int64(last)
			s.buf = appendInvalPayload(s.buf[:0], first, batch)
			req.Payload = s.buf
			resp, err := n.reliableRPC(s.peer, req, 0)
			req.Payload = nil // s.buf outlives the pooled frame
			releaseFrame(req)
			if err != nil {
				atomic.AddUint64(&n.c.InvalidateSkips, 1)
				n.trace(traceInvalidateSkip, s.peer, block.ID{}, int64(first))
				if !sleepOrStop(b.stop, backoffJitter(backoff, n.retryRand)) {
					return
				}
				if backoff = 2 * backoff; backoff > backoffCap {
					backoff = backoffCap
				}
				continue // re-collect: the window may have grown meanwhile
			}
			s.next = last + 1
			hwm := uint64(resp.Aux)
			if hwm > s.acked.Load() {
				s.acked.Store(hwm)
			}
			releaseFrame(resp)
			atomic.AddUint64(&n.c.InvalBatched, uint64(len(batch)))
			n.invalBatchBlocks.Observe(int64(len(batch)))
			n.invalLag.Observe(time.Duration(time.Now().UnixNano() - at))
			n.trace(traceInvalBatch, s.peer, block.ID{}, int64(len(batch)))
			if hwm < last {
				// The peer is repairing a gap (catch-up in flight): pace the
				// re-offers of the unacked window instead of spinning.
				if !sleepOrStop(b.stop, backoffJitter(backoff, n.retryRand)) {
					return
				}
				if backoff = 2 * backoff; backoff > backoffCap {
					backoff = backoffCap
				}
				continue
			}
			backoff = defaultRetryBackoff
		}
	}
}

// sleepOrStop sleeps d unless stop closes first, reporting whether the
// sleep completed.
func sleepOrStop(stop chan struct{}, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-stop:
		return false
	case <-t.C:
		return true
	}
}

// --- receiver side ---

// invalOrigin is a node's per-origin receive state: the applied sequence
// high-water mark and whether a catch-up is already in flight.
type invalOrigin struct {
	mu       sync.Mutex
	applied  uint64
	catching bool
}

// handleInvalidateN applies one batch of sequenced invalidation records.
// Batches are idempotent per origin: a frame whose window is entirely below
// the applied mark is a resend and is skipped whole (re-invalidating would
// needlessly kill freshly re-fetched copies). A window starting above
// applied+1 is a gap: the records are NOT applied out of order — a catch-up
// RPC re-fetches the full range so staleness repairs happen exactly once,
// in sequence. The ack carries the applied mark so the origin's depth gauge
// tracks reality.
func (n *Node) handleInvalidateN(f *Frame) *Frame {
	origin := int(f.Sender)
	p := n.peers.get(origin)
	if p == nil {
		return errFrame("invalidation batch from unknown origin %d", origin)
	}
	o := &p.inval
	first, ids, err := decodeInvalPayload(f.Payload, nil)
	if err != nil {
		return errFrame("invalidation batch: %v", err)
	}
	last := uint64(f.Aux)
	if last < first {
		return errFrame("invalidation batch window [%d,%d] inverted", first, last)
	}
	o.mu.Lock()
	switch {
	case last <= o.applied:
		// Duplicate resend (timeout raced the ack): already applied.
	case first > o.applied+1:
		if !o.catching {
			o.catching = true
			go n.invalCatchup(origin, o, o.applied+1)
		}
	default:
		for _, id := range ids {
			n.handleInvalidate(id)
		}
		o.applied = last
	}
	applied := o.applied
	o.mu.Unlock()
	r := ackFrame()
	r.Aux = int64(applied)
	return r
}

// handleInvalSince serves a catch-up request from this node's bus history:
// the retained records from sequence Aux on, batched like MsgInvalidateN.
// A range that fell off the bounded history gets a truncated reply
// (Flags=1): the requester must treat its whole cache as suspect.
func (n *Node) handleInvalSince(f *Frame) *Frame {
	b := n.busRef()
	if b == nil {
		return errFrame("node %d is a single-node cluster and has no invalidation bus", n.cfg.ID)
	}
	from := uint64(f.Aux)
	b.mu.Lock()
	head := b.head
	var floor uint64
	if b.count > 0 {
		floor = head - uint64(b.count) + 1
	} else {
		floor = head + 1
	}
	b.mu.Unlock()
	r := getFrame()
	r.Type = MsgInvalSinceReply
	if from < floor && head >= floor {
		// The range fell off the ring: the requester cannot be repaired
		// record by record.
		r.Flags = 1
		r.Aux = int64(head)
		return r
	}
	recs := make([]block.ID, 0, maxInvalBatch)
	seen := make(map[block.ID]struct{}, maxInvalBatch)
	first, last, _, batch := b.collect(from, recs, seen)
	if len(batch) == 0 {
		r.Aux = int64(from - 1) // nothing at or past `from`: caught up
		return r
	}
	r.Aux = int64(last)
	r.Payload = appendInvalPayload(nil, first, batch)
	return r
}

// invalCatchup reconciles a detected sequence gap with the origin: batched
// MsgInvalSince rounds until the reply covers nothing, or a truncated reply
// flushes the local cache. Failures just return — the next incoming batch
// re-detects the gap and tries again.
func (n *Node) invalCatchup(origin int, o *invalOrigin, from uint64) {
	atomic.AddUint64(&n.c.InvalCatchups, 1)
	n.trace(traceInvalCatchup, origin, block.ID{}, int64(from))
	defer func() {
		o.mu.Lock()
		o.catching = false
		o.mu.Unlock()
	}()
	for {
		req := getFrame()
		req.Type = MsgInvalSince
		req.Aux = int64(from)
		resp, err := n.reliableRPC(origin, req, n.tol.retries)
		releaseFrame(req)
		if err != nil {
			return
		}
		if e := resp.Err(); e != nil {
			releaseFrame(resp)
			return
		}
		last := uint64(resp.Aux)
		if resp.Flags&1 != 0 {
			// Truncated: the missed range is unknowable. Flush everything
			// cached and fast-forward to the origin's head.
			releaseFrame(resp)
			o.mu.Lock()
			if last > o.applied {
				o.applied = last
			}
			o.mu.Unlock()
			n.flushSuspect(origin)
			return
		}
		if last < from {
			releaseFrame(resp) // drained: caught up
			return
		}
		var ids []block.ID
		if len(resp.Payload) > 0 {
			if _, ids, err = decodeInvalPayload(resp.Payload, nil); err != nil {
				releaseFrame(resp)
				return
			}
		}
		o.mu.Lock()
		for _, id := range ids {
			n.handleInvalidate(id)
		}
		if last > o.applied {
			o.applied = last
		}
		o.mu.Unlock()
		releaseFrame(resp)
		from = last + 1
	}
}

// flushSuspect discards the whole local cache after a truncated catch-up:
// any cached block could be stale, and serving stale forever is the one
// outcome the bus forbids. Master drops are propagated to the directory.
func (n *Node) flushSuspect(origin int) {
	masters := n.store.RemoveAll()
	for _, id := range masters {
		n.dirCAS(id, int32(n.cfg.ID), dirNoEntry)
	}
	n.trace(traceInvalCatchup, origin, block.ID{}, -1)
}

// FlushInval blocks until every peer has acknowledged every invalidation
// record published before the call, or the timeout expires, reporting
// success. A single-node cluster has no bus and nothing to wait for:
// FlushInval reports true immediately. Intended for tests and orderly
// drains (ccload's node-drain scenario).
func (n *Node) FlushInval(timeout time.Duration) bool {
	n.mu.Lock()
	b := n.bus
	n.mu.Unlock()
	if b == nil {
		return true
	}
	deadline := time.Now().Add(timeout)
	for !b.drained() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}
