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
//   - Every peer applies each origin's records in sequence order and acks
//     its applied mark, the one piece of delivery state. The origin always
//     sends from the mark it was last told, so every repair is a resend:
//     a lost frame or ack is re-offered, a window the peer refuses as a gap
//     is resent from the mark it names.
//   - A bus numbers its records from its creation time in unix nanoseconds,
//     so a restarted or rejoined origin's records never pass for resends of
//     its earlier bus's. A peer whose mark falls below the retained history
//     (a long partition, or an earlier bus) is sent a truncated window and
//     flushes its whole cache before applying it: the bounded history
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
	notify chan struct{} // cap 1: publish or view-install wake-up, coalesced
	acked  atomic.Uint64 // the peer's applied mark, as its last ack named it
	buf    []byte        // reusable MsgInvalidateN payload buffer
}

// invalBus is a node's outgoing invalidation state: the bounded record
// history plus one sender loop per peer.
type invalBus struct {
	n *Node
	// base is the bus's creation time in unix nanoseconds and the sequence
	// before its first record. A record takes more than a nanosecond to
	// publish and the wall clock does not step back, so no sequence of a
	// later bus on this slot is at or below one this bus published.
	base uint64

	mu      sync.Mutex
	ring    [invalHistory]invalRec
	start   int    // ring index of the oldest retained record
	count   int    // retained records
	head    uint64 // sequence of the newest record (base: none published yet)
	stopped bool

	senders []*invalSender
	stop    chan struct{}
}

// newInvalBus builds an empty bus and starts one sender loop per peer.
func newInvalBus(n *Node, clusterSize int) *invalBus {
	base := uint64(time.Now().UnixNano())
	b := &invalBus{n: n, base: base, head: base, stop: make(chan struct{})}
	b.resize(clusterSize)
	return b
}

// shutdown stops the sender loops. Unsent records are abandoned: a later
// bus on this slot numbers past them, so its first window reaches each peer
// as truncated and flushes it.
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
	wake(senders)
}

// wake signals each sender's loop to drain toward its peer.
func wake(senders []*invalSender) {
	for _, s := range senders {
		select {
		case s.notify <- struct{}{}:
		default: // already signalled; the loop drains to head anyway
		}
	}
}

// resize grows the sender set to cover a membership view of clusterSize
// slots, then wakes every sender: an install can revive a slot, whose
// backlog should not wait for the next publish. Senders are never removed,
// and whether one delivers is read from the current view. A new sender
// starts at the bus's base, so a joiner is sent the retained history.
func (b *invalBus) resize(clusterSize int) {
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		return
	}
	covered := 0 // senders are appended in slot order
	if len(b.senders) > 0 {
		covered = b.senders[len(b.senders)-1].peer + 1
	}
	for i := covered; i < clusterSize; i++ {
		if i == b.n.cfg.ID {
			continue
		}
		s := &invalSender{peer: i, notify: make(chan struct{}, 1)}
		s.acked.Store(b.base)
		b.senders = append(b.senders, s)
		go b.senderLoop(s)
	}
	senders := b.senders
	b.mu.Unlock()
	wake(senders)
}

// collect builds the next batch for a peer whose applied mark is acked: up
// to maxInvalBatch distinct block IDs covering the consecutive sequence
// window [first, last] from acked+1 (back-to-back writes of the same block
// coalesce into one record; the window stays consecutive, so receivers
// track one applied mark per origin). `at` is the publish time of the last
// covered record. A window that would start below the retained floor
// starts at the floor and is truncated — the peer missed records it cannot
// be sent — unless the mark is 0 and the history is intact, so the peer has
// heard nothing and misses nothing. An empty batch means drained.
func (b *invalBus) collect(acked uint64, out []block.ID, seen map[block.ID]struct{}) (first, last uint64, at int64, truncated bool, batch []block.ID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	out = out[:0]
	from := acked + 1
	if b.count == 0 || from > b.head {
		return 0, 0, 0, false, out
	}
	floor := b.head - uint64(b.count) + 1
	if from < floor {
		truncated = acked != 0 || floor != b.base+1
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
	return first, last, at, truncated, out
}

// depth reports the deepest backlog of this bus's records a peer the
// current view reaches has not acknowledged (the cc_inval_bus_depth gauge;
// 0 means drained). Unreachable peers owe nothing until a view revives
// them, and a mark below the base counts as none of this bus's records
// acknowledged, not as a deeper backlog.
func (b *invalBus) depth() uint64 {
	b.mu.Lock()
	head, senders := b.head, b.senders
	b.mu.Unlock()
	v := b.n.viewRef()
	var deepest uint64
	for _, s := range senders {
		if !v.reachable(s.peer) {
			continue
		}
		if d := head - min(max(s.acked.Load(), b.base), head); d > deepest {
			deepest = d
		}
	}
	return deepest
}

// senderLoop drains the bus toward one peer: batched MsgInvalidateN frames
// from the peer's acked mark, retried forever with capped backoff (a failed
// attempt counts one InvalidateSkips: this peer's staleness window grew by
// one delivery attempt). The backoff cap stretches to the breaker cooldown
// so a dead peer costs about two probe attempts per cooldown, not a hot
// retry loop. An ack below the window's end is a refused gap: the mark it
// names is stored even if it is lower than before, and the resend from it
// goes out at once.
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
			if !n.viewRef().reachable(s.peer) {
				break // out of the view; an install that revives it wakes us
			}
			first, last, at, truncated, batch := b.collect(s.acked.Load(), recs, seen)
			recs = batch
			if len(batch) == 0 {
				break // drained; sleep until the next publish
			}
			req := getFrame()
			req.Type = MsgInvalidateN
			req.Aux = int64(last)
			if truncated {
				req.Flags = flagTruncated
			}
			s.buf = appendInvalPayload(s.buf[:0], first, batch)
			req.Payload = s.buf
			resp, err := n.reliableRPC(s.peer, req, 0)
			req.Payload = nil // s.buf outlives the pooled frame
			releaseFrame(req)
			if err == nil {
				if err = resp.Err(); err != nil {
					releaseFrame(resp) // e.g. a peer whose view lacks us yet
				}
			}
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
			backoff = defaultRetryBackoff
			mark := uint64(resp.Aux)
			releaseFrame(resp)
			s.acked.Store(mark)
			if mark < last {
				continue // refused as a gap: resend from its mark
			}
			atomic.AddUint64(&n.c.InvalBatched, uint64(len(batch)))
			n.invalBatchBlocks.Observe(int64(len(batch)))
			n.invalLag.Observe(time.Duration(time.Now().UnixNano() - at))
			n.trace(traceInvalBatch, s.peer, block.ID{}, int64(len(batch)))
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

// invalOrigin is a node's receive state for one origin slot: the applied
// mark, the last sequence applied from it (0: nothing heard from the slot
// in this process).
type invalOrigin struct {
	mu      sync.Mutex
	applied uint64
}

// handleInvalidateN applies one window of an origin's records and acks the
// applied mark. A window at or below the mark is a resend and is skipped
// whole (re-invalidating would needlessly kill freshly re-fetched copies).
// One that continues the mark, or reaches a receiver that has heard nothing
// from the origin, or is truncated, is applied; a truncated window first
// flushes the whole cache, since the records it skips are unknowable. Any
// other window is a gap: it is refused, and the mark in the ack tells the
// origin where to resend from.
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
	truncated := f.Flags&flagTruncated != 0
	var masters []block.ID
	repair := false
	o.mu.Lock()
	switch {
	case last <= o.applied:
		// Duplicate resend (timeout raced the ack): already applied.
	case first <= o.applied+1 || o.applied == 0 || truncated:
		if truncated {
			masters = n.store.RemoveAll()
			repair = true
		}
		for _, id := range ids {
			n.handleInvalidate(id)
		}
		o.applied = last
	default:
		repair = true // a gap: refused
	}
	applied := o.applied
	o.mu.Unlock()
	if repair {
		atomic.AddUint64(&n.c.InvalCatchups, 1)
		aux := int64(applied)
		if truncated {
			aux = -1
		}
		n.trace(traceInvalCatchup, origin, block.ID{}, aux)
	}
	for _, id := range masters {
		n.dirCAS(id, int32(n.cfg.ID), dirNoEntry)
	}
	r := ackFrame()
	r.Aux = int64(applied)
	return r
}

// FlushInval blocks until every peer the current view reaches has
// acknowledged every invalidation record published before the call, or the
// timeout expires, reporting success. A single-node cluster has no bus and
// nothing to wait for: FlushInval reports true immediately. Intended for
// tests and orderly drains (ccload's node-drain scenario).
func (n *Node) FlushInval(timeout time.Duration) bool {
	b := n.busRef()
	if b == nil {
		return true
	}
	deadline := time.Now().Add(timeout)
	for b.depth() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}
