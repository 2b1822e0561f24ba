package middleware

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the peer table: what one side of the cluster, a node or a
// client, keeps about each member slot, and the one way it dials, redials
// and judges a member's health. Both sides hold one.
//
// The table is grow-only and indexed by node ID, like the views installed
// into it: a dead member keeps its slot (ring.go). The slot slice is
// published through an atomic pointer and copied on grow, so a lookup is
// one load and no lock. A view is published only after the slots cover it,
// so a reader that loads the view and then the slots never indexes past
// them.

// peer is one member slot as this side sees it. A client leaves the
// node-only fields (age, inval and the heartbeat state) unused.
type peer struct {
	id   int
	conn atomic.Pointer[conn] // nil: not dialed yet, or dropped
	br   breaker
	// age is the oldest-block age the member piggybacks on its frames
	// (noAge: unknown), the §3 forwarding target's criterion.
	age atomic.Int64
	// inval is the receive state of the member's invalidation records.
	inval invalOrigin

	// mu guards addr, every store to conn, and the heartbeat state
	// (member.go): a probe in flight, the last successful probe, the
	// consecutive failures (dead promotion needs deadMinFails of them) and
	// whether this node routes around the member (a local judgement, not a
	// view state).
	mu        sync.Mutex
	addr      string
	hbBusy    bool
	hbLast    time.Time
	hbFails   int
	hbSuspect bool
}

// settle feeds one round trip's outcome to p's breaker and reports whether
// it opened or closed the circuit. A reply of any type, an application
// error (MsgErr) included, proves the member alive and closes the circuit:
// a half-open probe answered with an error must not leave the breaker
// probing forever. A transport failure counts against the member.
func (p *peer) settle(err error) (opened, closed bool) {
	if isTransient(err) {
		return p.br.failure(), false
	}
	return false, p.br.success()
}

// peerTable is the membership view this side acts on and one peer per slot.
type peerTable struct {
	self  int // this side's node ID (-1: a client), the fault plan's link source
	tol   tolerance
	fault *FaultPlan
	cc    connConfig // the settings of every conn the table dials

	mu     sync.Mutex // serializes install
	view   atomic.Pointer[memberView]
	slots  atomic.Pointer[[]*peer]
	closed atomic.Bool
}

func newPeerTable(self int, tol tolerance, fault *FaultPlan, cc connConfig) *peerTable {
	t := &peerTable{self: self, tol: tol, fault: fault, cc: cc}
	t.slots.Store(&[]*peer{})
	return t
}

// get returns slot i's peer (nil: no such slot). Every slot of a view
// loaded before the call exists.
func (t *peerTable) get(i int) *peer {
	s := *t.slots.Load()
	if i < 0 || i >= len(s) {
		return nil
	}
	return s[i]
}

// install publishes v if it is newer than the current view, reporting the
// view it replaced. The slots grow to cover v first; a slot whose address
// changed, and every dead member, loses its conn.
func (t *peerTable) install(v *memberView) (old *memberView, ok bool) {
	t.mu.Lock()
	old = t.view.Load()
	if old != nil && old.epoch >= v.epoch {
		t.mu.Unlock()
		return old, false
	}
	s := *t.slots.Load()
	if len(s) < v.size() {
		grown := make([]*peer, v.size())
		copy(grown, s)
		for i := len(s); i < len(grown); i++ {
			p := &peer{id: i, br: breaker{threshold: t.tol.threshold, cooldown: t.tol.cooldown}}
			p.age.Store(noAge)
			grown[i] = p
		}
		t.slots.Store(&grown)
		s = grown
	}
	var drop []*conn
	for i, m := range v.members {
		p := s[i]
		p.mu.Lock()
		moved := m.Addr != "" && m.Addr != p.addr
		if moved {
			p.addr = m.Addr
		}
		if moved || m.State == stateDead {
			if c := p.conn.Swap(nil); c != nil {
				drop = append(drop, c)
			}
		}
		p.mu.Unlock()
	}
	t.view.Store(v)
	t.mu.Unlock()
	for _, c := range drop {
		c.close()
	}
	return old, true
}

// conn returns p's conn, dialing one when there is none. The dial runs
// outside every lock; of two callers dialing at once, the first to finish
// wins and the other closes its conn.
func (t *peerTable) conn(p *peer) (*conn, error) {
	if c := p.conn.Load(); c != nil {
		return c, nil
	}
	if t.closed.Load() {
		return nil, errConnClosed
	}
	p.mu.Lock()
	addr := p.addr
	p.mu.Unlock()
	if addr == "" {
		return nil, errPeerSuspect // a slot never filled: steer elsewhere
	}
	c, err := t.dial(addr, p.id)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	won := p.conn.Load()
	keep := won == nil && p.addr == addr && !t.closed.Load()
	if keep {
		p.conn.Store(c)
	}
	p.mu.Unlock()
	if keep {
		return c, nil
	}
	c.close()
	if won == nil {
		return nil, errConnClosed // the table closed or the member moved meanwhile
	}
	return won, nil
}

// dial opens a conn to addr, the member in slot to (-1: not known yet),
// through the fault plan. It is the package's one dial.
func (t *peerTable) dial(addr string, to int) (*conn, error) {
	nc, err := net.DialTimeout("tcp", addr, t.tol.timeout)
	if err != nil {
		return nil, err
	}
	return newConn(t.fault.Wrap(nc, t.self, to), t.cc), nil
}

// roundTrip sends f to p and waits for the reply. A conn found dead (the
// member restarted) is dropped and redialed once. The breaker is the
// caller's: heartbeat probes bypass it.
func (t *peerTable) roundTrip(p *peer, f *Frame) (*Frame, error) {
	c, err := t.conn(p)
	if err != nil {
		return nil, err
	}
	resp, err := c.roundTrip(f)
	if err != errConnClosed {
		return resp, err
	}
	if c, err = t.redial(p, c); err != nil {
		return nil, err
	}
	return c.roundTrip(f)
}

// send writes the one-way frame f to p and waits for nothing: a frame that
// leaves is not known to arrive. A conn found dead is dropped and redialed
// once, as in roundTrip. It neither consults nor feeds the breaker: a write
// that succeeds proves nothing about the member.
func (t *peerTable) send(p *peer, f *Frame) error {
	c, err := t.conn(p)
	if err != nil {
		return err
	}
	if err = c.send(f); err != errConnClosed {
		return err
	}
	if c, err = t.redial(p, c); err != nil {
		return err
	}
	return c.send(f)
}

// redial drops p's dead conn c and returns a fresh one.
func (t *peerTable) redial(p *peer, c *conn) (*conn, error) {
	p.mu.Lock()
	p.conn.CompareAndSwap(c, nil)
	p.mu.Unlock()
	return t.conn(p)
}

// close closes every conn; later dials fail with errConnClosed.
func (t *peerTable) close() {
	t.closed.Store(true)
	for _, p := range *t.slots.Load() {
		p.mu.Lock()
		c := p.conn.Swap(nil)
		p.mu.Unlock()
		if c != nil {
			c.close()
		}
	}
}
