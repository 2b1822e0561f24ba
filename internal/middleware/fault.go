package middleware

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"time"
)

// errFaultCrash is what a fault-injected connection returns after a
// mid-frame crash. It reaches callers as a closed-connection error (the
// conn tears down), so the retry layer treats it like any peer crash.
var errFaultCrash = errors.New("middleware: fault injection: connection crashed mid-frame")

// FaultPlan is a seeded, deterministic fault-injection plan for the wire
// path. A plan wraps connections (Config.Fault on nodes, ClientConfig.Fault
// on clients) and perturbs outgoing frames: added latency, silently dropped
// frames (the peer never sees them, so the sender times out), one-way
// partitions, and mid-frame crashes (half a frame is written, then the
// connection dies — the receiver sees a truncated stream).
//
// Each wrapped connection draws its decisions from its own rand stream
// derived from Seed and the connection endpoints, so a given plan
// reproduces the same fault pattern per connection across runs (modulo
// goroutine scheduling of concurrent requests). The zero probability
// fields disable their fault class; a nil *FaultPlan injects nothing.
type FaultPlan struct {
	// Seed anchors every derived rand stream.
	Seed int64
	// DelayProb is the per-frame probability of injecting Delay of extra
	// latency before the frame is written.
	DelayProb float64
	// Delay is the injected latency.
	Delay time.Duration
	// DropProb is the per-frame probability of silently discarding the
	// frame. The stream stays well-formed (whole frames vanish), so the
	// effect is a lost request or response: the waiting side times out.
	DropProb float64
	// CrashProb is the per-frame probability of a mid-frame crash: half the
	// frame is written, then the connection closes. The receiver observes a
	// truncated stream and tears the connection down.
	CrashProb float64
	// Partitions lists one-way partitions [from, to]: every frame a
	// wrapped connection sends from node `from` to node `to` is dropped
	// (responses flowing to→from are unaffected — that is the one-way
	// part). Node IDs follow cluster indices; clients are -1.
	Partitions [][2]int
}

// partitioned reports whether frames from→to are blackholed.
func (p *FaultPlan) partitioned(from, to int) bool {
	for _, pr := range p.Partitions {
		if pr[0] == from && pr[1] == to {
			return true
		}
	}
	return false
}

// Wrap returns nc perturbed by the plan for traffic from node `from` to
// node `to` (use -1 for a client, and to = -1 on accepted connections
// where the remote identity is unknown; partitions then do not apply but
// probabilistic faults do). A nil plan returns nc unchanged.
func (p *FaultPlan) Wrap(nc net.Conn, from, to int) net.Conn {
	if p == nil {
		return nc
	}
	// Distinct endpoints get distinct, stable streams.
	seed := p.Seed ^ (int64(from+2) * 0x1E3779B97F4A7C15) ^ (int64(to+2) * 0x42B2AE3D27D4EB4F)
	return &faultConn{
		Conn: nc,
		plan: p,
		from: from,
		to:   to,
		rng:  rand.New(rand.NewSource(seed)),
	}
}

// faultConn applies a FaultPlan to every Write. The protocol writer emits
// exactly one Write per frame on fault-wrapped connections (the writev
// fast path is disabled via singleFrameWrites), so per-Write decisions are
// per-frame decisions and dropped frames never tear the stream framing.
type faultConn struct {
	net.Conn
	plan     *FaultPlan
	from, to int

	mu  sync.Mutex
	rng *rand.Rand
}

// singleFrameWrites marks the connection as requiring one contiguous Write
// per frame (see conn.write).
func (fc *faultConn) singleFrameWrites() {}

// faultAction is one decision of the plan for a frame.
type faultAction int

const (
	faultNone faultAction = iota
	faultDrop
	faultCrash
	faultDelay
)

func (fc *faultConn) decide() faultAction {
	if fc.plan.partitioned(fc.from, fc.to) {
		return faultDrop
	}
	fc.mu.Lock()
	defer fc.mu.Unlock()
	r := fc.rng.Float64()
	switch {
	case fc.plan.DropProb > 0 && r < fc.plan.DropProb:
		return faultDrop
	case fc.plan.CrashProb > 0 && r < fc.plan.DropProb+fc.plan.CrashProb:
		return faultCrash
	case fc.plan.DelayProb > 0 && r < fc.plan.DropProb+fc.plan.CrashProb+fc.plan.DelayProb:
		return faultDelay
	}
	return faultNone
}

func (fc *faultConn) Write(b []byte) (int, error) {
	switch fc.decide() {
	case faultDrop:
		// The frame vanishes; the sender believes it was delivered.
		return len(b), nil
	case faultCrash:
		if half := len(b) / 2; half > 0 {
			fc.Conn.Write(b[:half]) //nolint:errcheck // crashing anyway
		}
		fc.Conn.Close()
		return 0, errFaultCrash
	case faultDelay:
		time.Sleep(fc.plan.Delay)
	}
	return fc.Conn.Write(b)
}
