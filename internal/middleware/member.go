package middleware

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/block"
)

// This file is the membership lifecycle built on the consistent-hash view
// (ring.go): heartbeat failure detection, the coordinator that serializes
// membership changes, the join/drain/dead-promotion RPCs, and view
// dissemination.
//
// The model is deliberately simple — a single coordinator (the lowest-ID
// alive member that the observer does not currently suspect) serializes
// view construction, epochs only move forward, and every node installs the
// highest epoch it has seen (install-if-newer CAS). Heartbeat epochs
// piggyback anti-entropy: any exchange between nodes at different epochs
// triggers a view fetch, so a missed MsgViewUpdate heals in one probe
// interval. This is not consensus — two coordinators racing during the
// exact window where the old coordinator dies can briefly fork same-epoch
// views — but forks heal at the next change (higher epoch wins) and the
// read path tolerates a stale view by construction (the old home still
// serves until its blocks are pulled away).

// --- heartbeats ---

// heartbeatLoop probes the peers every Config.HeartbeatInterval until Close.
func (n *Node) heartbeatLoop() {
	t := time.NewTicker(n.hbInterval)
	defer t.Stop()
	for {
		select {
		case <-n.hbStop:
			return
		case <-t.C:
			n.probePeers()
		}
	}
}

// probePeers launches one probe per reachable peer, skipping peers with a
// probe still in flight (a slow peer gets one outstanding probe, not a
// pile-up).
func (n *Node) probePeers() {
	v := n.viewRef()
	if v == nil {
		return
	}
	now := time.Now()
	for i := range v.members {
		if i == n.cfg.ID || !v.reachable(i) {
			continue
		}
		p := n.peers.get(i)
		p.mu.Lock()
		if p.hbBusy {
			p.mu.Unlock()
			continue
		}
		if p.hbLast.IsZero() {
			// First sight: the miss clock starts now, not at epoch zero.
			p.hbLast = now
		}
		p.hbBusy = true
		p.mu.Unlock()
		go n.probe(p, v.epoch)
	}
}

// deadMinFails is the consecutive-probe-failure floor for dead promotion:
// the miss clock alone is not enough, because a single probe that pays the
// full RPC timeout can exceed DeadTimeout by itself — one slow exchange on
// a congested link must never retire a live member (dead is terminal).
const deadMinFails = 3

// probe sends one MsgPing to peer p, feeding the suspect clock and — past
// DeadTimeout and deadMinFails consecutive failures — the coordinator's
// dead promotion. The exchanged epochs drive anti-entropy in both
// directions. The probe deliberately bypasses the circuit breaker: the
// breaker opens on data-path congestion too, and a failure detector that
// reads the breaker instead of the peer would fail fast for a whole
// cooldown and promote a live-but-loaded member.
func (n *Node) probe(p *peer, epoch uint64) {
	defer func() {
		p.mu.Lock()
		p.hbBusy = false
		p.mu.Unlock()
	}()
	f := getFrame()
	f.Type = MsgPing
	f.Aux = int64(epoch)
	resp, err := n.peers.roundTrip(p, f)
	releaseFrame(f)
	if err != nil {
		atomic.AddUint64(&n.c.HeartbeatFailures, 1)
		p.mu.Lock()
		p.hbFails++
		miss := time.Since(p.hbLast)
		p.hbSuspect = miss >= n.hbSuspectAfter
		dead := miss >= n.hbDeadAfter && p.hbFails >= deadMinFails
		p.mu.Unlock()
		n.trace(traceHeartbeatFail, p.id, block.ID{}, int64(miss/time.Millisecond))
		if dead {
			n.proposeDead(p.id)
		}
		return
	}
	peerEpoch := uint64(resp.Aux)
	releaseFrame(resp)
	p.mu.Lock()
	p.hbLast = time.Now()
	p.hbFails = 0
	p.hbSuspect = false
	p.mu.Unlock()
	if cur := n.viewRef(); cur != nil && peerEpoch > cur.epoch {
		n.fetchView(p.id)
	}
}

// suspects reports whether this node currently suspects peer i (local
// judgement only — never a view state).
func (n *Node) suspects(i int) bool {
	p := n.peers.get(i)
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hbSuspect
}

// handlePing answers a heartbeat with this node's epoch; a probe carrying a
// higher epoch than ours triggers a fetch from the prober (anti-entropy).
func (n *Node) handlePing(f *Frame) *Frame {
	v := n.viewRef()
	if v != nil && f.Sender >= 0 && uint64(f.Aux) > v.epoch {
		go n.fetchView(int(f.Sender))
	}
	r := ackFrame()
	if v != nil {
		r.Aux = int64(v.epoch)
	}
	return r
}

// --- view dissemination ---

// handleView answers with the current membership view.
func (n *Node) handleView(f *Frame) *Frame {
	v := n.viewRef()
	if v == nil {
		return errFrame("node %d has no membership view", n.cfg.ID)
	}
	return viewReply(v)
}

// handleViewUpdate installs a pushed view if it is newer than ours.
func (n *Node) handleViewUpdate(f *Frame) *Frame {
	v, err := decodeView(f.Payload)
	if err != nil {
		return errFrame("view update: %v", err)
	}
	n.installView(v)
	r := ackFrame()
	if cur := n.viewRef(); cur != nil {
		r.Aux = int64(cur.epoch)
	}
	return r
}

func viewReply(v *memberView) *Frame {
	r := getFrame()
	r.Type = MsgViewReply
	r.Aux = int64(v.epoch)
	r.Payload = appendView(nil, v)
	return r
}

// fetchView pulls peer i's view and installs it if newer.
func (n *Node) fetchView(i int) {
	f := getFrame()
	f.Type = MsgView
	resp, err := n.reliableRPC(i, f, 0)
	releaseFrame(f)
	if err != nil {
		return
	}
	if resp.Type == MsgViewReply {
		if v, derr := decodeView(resp.Payload); derr == nil {
			n.installView(v)
		}
	}
	releaseFrame(resp)
}

// installView makes v the current view if it is strictly newer (the peer
// table covers its slots and drops the conns of moved and dead members
// first) and runs the post-install work (bus resize and wake-up, rebalance
// computation) on success. Until that work has queued the pulls a view
// owes, ensureMigrated waits (installMu).
func (n *Node) installView(v *memberView) bool {
	n.installing.Add(1)
	n.installMu.Lock()
	defer n.installMu.Unlock()
	defer n.installing.Add(-1)
	old, ok := n.peers.install(v)
	if !ok {
		return false
	}
	if hook := testAfterViewCAS.Load(); hook != nil {
		(*hook)(n)
	}
	n.afterViewInstall(old, v)
	return true
}

// testAfterViewCAS, when set by a test, runs between installView's install
// and the post-install work.
var testAfterViewCAS atomic.Pointer[func(*Node)]

// afterViewInstall runs once per successful install: bus lifecycle (every
// sender wakes, so a revived slot's backlog leaves now), membership traces,
// the sweep of directory entries whose files moved away, and the rebalance
// diff between the replaced view and the new one.
func (n *Node) afterViewInstall(old, v *memberView) {
	n.mu.Lock()
	if n.bus == nil && v.size() > 1 && !n.closed {
		n.bus = newInvalBus(n, v.size())
	}
	bus := n.bus
	n.mu.Unlock()
	if bus != nil {
		bus.resize(v.size())
	}
	for i, m := range v.members {
		var was memberState = stateDead
		hadSlot := old != nil && i < old.size() && old.members[i].Addr != ""
		if hadSlot {
			was = old.members[i].State
		}
		switch {
		case m.State == stateAlive && m.Addr != "" && (!hadSlot || was != stateAlive):
			n.trace(traceMemberJoin, i, block.ID{}, int64(v.epoch))
		case m.State == stateDead && hadSlot && was != stateDead:
			n.trace(traceMemberDead, i, block.ID{}, int64(v.epoch))
		}
	}
	n.dirSrv.sweep(v, n.cfg.ID)
	n.computeRebalance(old, v)
}

// --- coordinator & membership changes ---

// coordinator picks the lowest-ID alive member this node does not currently
// suspect. Every membership change funnels through it; when it dies, its
// suspecters skip past it to the next slot.
func (n *Node) coordinator() int {
	v := n.viewRef()
	if v == nil {
		return -1
	}
	for i, m := range v.members {
		if m.State != stateAlive || m.Addr == "" {
			continue
		}
		if i != n.cfg.ID && n.suspects(i) {
			continue
		}
		return i
	}
	return -1
}

// flagMemberForwarded marks a join/drain frame that already crossed one
// coordinator hop, stopping forwarding loops when nodes briefly disagree on
// who coordinates (the receiver then decides locally).
const flagMemberForwarded = 4

// handleJoin admits a member (Aux: requested slot ID, negative for "next
// free"; payload: its listen address), forwarding to the coordinator when
// that is someone else. The reply is the view that includes the joiner.
func (n *Node) handleJoin(f *Frame) *Frame {
	return n.memberChange(f, func() (*memberView, error) {
		return n.admitMember(int(f.Aux), string(f.Payload))
	})
}

// handleDrain moves member Aux out of the ring: to draining (it keeps
// serving while successors pull its blocks), or — Flags bit 0, the
// suspect-promotion path — straight to dead.
func (n *Node) handleDrain(f *Frame) *Frame {
	to := stateDraining
	if f.Flags&1 != 0 {
		to = stateDead
	}
	return n.memberChange(f, func() (*memberView, error) {
		return n.changeMemberState(int(f.Aux), to)
	})
}

// memberChange runs a membership mutation here if this node coordinates (or
// the frame was already forwarded once), else relays the frame to the
// coordinator and passes its reply through.
func (n *Node) memberChange(f *Frame, apply func() (*memberView, error)) *Frame {
	coord := n.coordinator()
	if coord < 0 {
		return errFrame("node %d has no membership view", n.cfg.ID)
	}
	if coord != n.cfg.ID && f.Flags&flagMemberForwarded == 0 {
		req := getFrame()
		req.Type, req.File, req.Idx, req.Aux = f.Type, f.File, f.Idx, f.Aux
		req.Flags = f.Flags | flagMemberForwarded
		if len(f.Payload) > 0 {
			req.Payload = append([]byte(nil), f.Payload...)
		}
		resp, err := n.reliableRPC(coord, req, n.tol.retries)
		releaseFrame(req)
		if err != nil {
			return errFrame("forwarding to coordinator %d: %v", coord, err)
		}
		// Relay verbatim (and learn the view ourselves on the way through).
		r := getFrame()
		r.Type, r.Flags, r.Aux = resp.Type, resp.Flags, resp.Aux
		if len(resp.Payload) > 0 {
			r.Payload = append([]byte(nil), resp.Payload...)
			if resp.Type == MsgViewReply {
				if v, derr := decodeView(resp.Payload); derr == nil {
					n.installView(v)
				}
			}
		}
		releaseFrame(resp)
		return r
	}
	v, err := apply()
	if err != nil {
		return errFrame("%v", err)
	}
	return viewReply(v)
}

// admitMember builds and disseminates the view that includes a new (or
// returning) member. Serialized by memberMu — the coordinator's one-at-a-
// time guarantee for membership changes.
func (n *Node) admitMember(id int, addr string) (*memberView, error) {
	if addr == "" {
		return nil, fmt.Errorf("middleware: join with empty address")
	}
	n.memberMu.Lock()
	defer n.memberMu.Unlock()
	cur := n.viewRef()
	if cur == nil {
		return nil, fmt.Errorf("middleware: no membership view to join")
	}
	if id < 0 {
		id = cur.size()
		for s, m := range cur.members {
			if m.Addr == "" {
				id = s
				break
			}
		}
	}
	if id < cur.size() {
		if m := cur.members[id]; m.State == stateAlive && m.Addr == addr {
			return cur, nil // idempotent re-join
		} else if m.State == stateAlive && m.Addr != "" {
			return nil, fmt.Errorf("middleware: slot %d is alive at %s", id, m.Addr)
		}
	}
	v := newMemberView(cur.epoch+1, cur.withMember(id, memberInfo{Addr: addr, State: stateAlive}))
	n.installView(v)
	n.broadcastView(v)
	return v, nil
}

// changeMemberState builds and disseminates the view with member id moved
// to the given state. Dead is terminal; draining a dead member is a no-op.
func (n *Node) changeMemberState(id int, to memberState) (*memberView, error) {
	n.memberMu.Lock()
	defer n.memberMu.Unlock()
	cur := n.viewRef()
	if cur == nil {
		return nil, fmt.Errorf("middleware: no membership view")
	}
	if id < 0 || id >= cur.size() || cur.members[id].Addr == "" {
		return nil, fmt.Errorf("middleware: no member %d", id)
	}
	m := cur.members[id]
	if m.State == to || m.State == stateDead {
		return cur, nil // idempotent; dead is terminal
	}
	if to != stateAlive && cur.aliveCount() <= 1 && m.State == stateAlive {
		return nil, fmt.Errorf("middleware: refusing to remove the last alive member %d", id)
	}
	v := newMemberView(cur.epoch+1, cur.withMember(id, memberInfo{Addr: m.Addr, State: to}))
	n.installView(v)
	n.broadcastView(v)
	return v, nil
}

// broadcastView pushes a freshly built view to every reachable member.
// Best-effort: a missed push heals via ping-epoch anti-entropy.
func (n *Node) broadcastView(v *memberView) {
	for i := range v.members {
		if i == n.cfg.ID || !v.reachable(i) {
			continue
		}
		go func(peer int) {
			f := getFrame()
			f.Type = MsgViewUpdate
			f.Aux = int64(v.epoch)
			f.Payload = appendView(nil, v)
			resp, err := n.reliableRPC(peer, f, 1)
			releaseFrame(f)
			if err == nil {
				releaseFrame(resp)
			}
		}(i)
	}
}

// proposeDead asks the coordinator to promote peer i to dead (or does it
// directly when this node coordinates). Fired by the heartbeat loop after
// DeadTimeout; idempotent and best-effort — every suspecter re-proposes
// each interval until a view without i lands.
func (n *Node) proposeDead(i int) {
	v := n.viewRef()
	if v == nil || !v.reachable(i) {
		return // already out
	}
	coord := n.coordinator()
	if coord < 0 || coord == i {
		return
	}
	if coord == n.cfg.ID {
		n.changeMemberState(i, stateDead) //nolint:errcheck // re-proposed next interval
		return
	}
	f := getFrame()
	f.Type = MsgDrain
	f.Aux = int64(i)
	f.Flags = 1 | flagMemberForwarded // dead, decided here
	resp, err := n.reliableRPC(coord, f, 0)
	releaseFrame(f)
	if err != nil {
		return
	}
	if resp.Type == MsgViewReply {
		if nv, derr := decodeView(resp.Payload); derr == nil {
			n.installView(nv)
		}
	}
	releaseFrame(resp)
}

// --- node-level API ---

// Join connects to any live member of an existing cluster and joins it:
// the cluster admits this node (slot = its configured ID, or the next free
// slot when negative), the returned view is installed locally, and the
// rebalance pull of this node's slice of the ring starts immediately.
// SetAddrs must NOT have been called — Join is the bootstrap for elastic
// members.
func (n *Node) Join(seed string) error {
	c, err := n.peers.dial(seed, -1)
	if err != nil {
		return fmt.Errorf("middleware: join dial %s: %w", seed, err)
	}
	defer c.close()
	f := getFrame()
	f.Type = MsgJoin
	f.Aux = int64(n.cfg.ID)
	f.Payload = []byte(n.Addr())
	resp, err := c.roundTrip(f)
	releaseFrame(f)
	if err != nil {
		return fmt.Errorf("middleware: join via %s: %w", seed, err)
	}
	defer releaseFrame(resp)
	if e := resp.Err(); e != nil {
		return fmt.Errorf("middleware: join rejected: %w", e)
	}
	if resp.Type != MsgViewReply {
		return fmt.Errorf("middleware: join got unexpected %d reply", resp.Type)
	}
	v, err := decodeView(resp.Payload)
	if err != nil {
		return err
	}
	for i, m := range v.members {
		if m.Addr == n.Addr() && m.State == stateAlive {
			if i != n.cfg.ID {
				return fmt.Errorf("middleware: cluster admitted us as node %d but we are configured as %d", i, n.cfg.ID)
			}
			n.installView(v)
			return nil
		}
	}
	return fmt.Errorf("middleware: join view (epoch %d) does not include us", v.epoch)
}

// Drain asks the cluster to move this node out of the ring. The node keeps
// serving (reads, migration pulls by the new homes) until its blocks are
// handed off — poll RebalancePending across the survivors, FlushInval, then
// Close.
func (n *Node) Drain() error {
	coord := n.coordinator()
	if coord < 0 {
		return fmt.Errorf("middleware: no membership view")
	}
	if coord == n.cfg.ID {
		_, err := n.changeMemberState(n.cfg.ID, stateDraining)
		return err
	}
	f := getFrame()
	f.Type = MsgDrain
	f.Aux = int64(n.cfg.ID)
	resp, err := n.reliableRPC(coord, f, n.tol.retries)
	releaseFrame(f)
	if err != nil {
		return err
	}
	defer releaseFrame(resp)
	if e := resp.Err(); e != nil {
		return e
	}
	if resp.Type == MsgViewReply {
		if v, derr := decodeView(resp.Payload); derr == nil {
			n.installView(v)
		}
	}
	return nil
}

// MembershipEpoch reports the node's current view epoch (0: none).
func (n *Node) MembershipEpoch() uint64 {
	if v := n.viewRef(); v != nil {
		return v.epoch
	}
	return 0
}
