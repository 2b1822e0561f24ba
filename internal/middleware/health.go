package middleware

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Fault-tolerance defaults (see Config and ClientConfig).
const (
	defaultRPCTimeout       = 5 * time.Second
	defaultRetries          = 2
	defaultRetryBackoff     = 2 * time.Millisecond
	retryBackoffCap         = 16 * defaultRetryBackoff
	defaultBreakerThreshold = 5
	defaultBreakerCooldown  = 500 * time.Millisecond
)

// tolerance is the fault-tolerance settings Config and ClientConfig share,
// with the defaults applied.
type tolerance struct {
	timeout   time.Duration // per round trip and dial; 0: no deadline
	retries   int
	threshold int // consecutive failures that open a breaker; <= 0: no breakers
	cooldown  time.Duration
}

// newTolerance resolves the four settings: 0 picks the default; a negative
// timeout or retry count turns deadlines or retries off.
func newTolerance(timeout time.Duration, retries, threshold int, cooldown time.Duration) tolerance {
	t := tolerance{timeout: timeout, retries: retries, threshold: threshold, cooldown: cooldown}
	if t.timeout == 0 {
		t.timeout = defaultRPCTimeout
	}
	t.timeout = max(t.timeout, 0)
	if t.retries == 0 {
		t.retries = defaultRetries
	}
	t.retries = max(t.retries, 0)
	if t.threshold == 0 {
		t.threshold = defaultBreakerThreshold
	}
	if t.cooldown <= 0 {
		t.cooldown = defaultBreakerCooldown
	}
	return t
}

// errRPCTimeout is returned by roundTrip when the reply misses the
// connection's deadline. The frame, if it ever arrives, is discarded by
// the pending-map removal; the pool ownership contract is unaffected.
var errRPCTimeout = errors.New("middleware: rpc deadline exceeded")

// errPeerSuspect is returned when a peer's circuit breaker is open: the
// peer is presumed down and the request is failed up front instead of
// paying a timeout for it.
var errPeerSuspect = errors.New("middleware: peer suspected down (circuit open)")

// isTransient reports whether err is a transport-level failure (timeout,
// torn/refused/closed connection, suspected peer) — the class of errors
// that justifies a retry or a degradation to the home node. Application
// errors relayed as MsgErr are not transient: the peer is alive and told
// us the operation itself is wrong.
func isTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, errConnClosed) || errors.Is(err, errRPCTimeout) ||
		errors.Is(err, errPeerSuspect) || errors.Is(err, errFaultCrash) {
		return true
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, io.ErrClosedPipe) {
		return true
	}
	var ne net.Error // dial errors, deadline exceeded, refused connections
	return errors.As(err, &ne)
}

// IsTransient reports whether err is a transport-level failure a caller
// may retry (timeout, torn/refused/closed connection, suspected peer).
// Serving layers use it to pick a 5xx class for cluster errors.
func IsTransient(err error) bool { return isTransient(err) }

// IsTimeout reports whether err is a deadline miss — an RPC that ran out
// of time rather than a peer that refused or a request that was wrong.
// HTTP gateways map this class to 504 Gateway Timeout.
func IsTimeout(err error) bool {
	if errors.Is(err, errRPCTimeout) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// breaker is a per-peer circuit breaker. After `threshold` consecutive
// transport failures the circuit opens: requests to the peer fail fast
// (errPeerSuspect) instead of paying a timeout each. After `cooldown`, one
// half-open probe request is let through; any reply to it closes the
// circuit (peer.settle), a transport failure re-arms the cooldown.
//
// A zero or negative threshold disables the breaker (allow always).
type breaker struct {
	threshold int
	cooldown  time.Duration

	mu        sync.Mutex
	fails     int
	openUntil time.Time // zero: closed
	probing   bool      // a half-open probe is in flight
}

// allow reports whether a request to the peer may proceed. In the open
// state it admits a single probe once the cooldown elapsed.
func (b *breaker) allow() bool {
	if b.threshold <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fails < b.threshold {
		return true
	}
	if b.probing || time.Now().Before(b.openUntil) {
		return false
	}
	b.probing = true
	return true
}

// success records a completed round trip and closes the circuit, reporting
// whether this closed a previously open circuit (the open→closed
// transition, for the breaker_close trace event).
func (b *breaker) success() bool {
	if b.threshold <= 0 {
		return false
	}
	b.mu.Lock()
	wasOpen := b.fails >= b.threshold
	b.fails = 0
	b.openUntil = time.Time{}
	b.probing = false
	b.mu.Unlock()
	return wasOpen
}

// failure records a transport failure and reports whether it opened the
// circuit (for the breakerOpens counter). Every transition into the open
// state counts: the closed→open trip at the failure threshold AND the
// half-open→open re-trip when a probe fails — in the latter case fails is
// already past the threshold, so comparing against the threshold alone
// (the old accounting) silently missed every re-open.
func (b *breaker) failure() bool {
	if b.threshold <= 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	opened := b.probing || b.fails == b.threshold-1
	b.fails++
	b.openUntil = time.Now().Add(b.cooldown)
	b.probing = false
	return opened
}

// --- retry backoff ---

// lockedRand is a mutex-guarded rand.Rand: the retry paths of concurrent
// requests share one per-node seeded stream instead of contending on the
// global math/rand lock (and instead of being nondeterministic under a
// seeded FaultPlan).
type lockedRand struct {
	mu sync.Mutex
	r  *rand.Rand
}

func newLockedRand(seed int64) *lockedRand {
	return &lockedRand{r: rand.New(rand.NewSource(seed))}
}

// Int63n is rand.Rand.Int63n under the lock.
func (l *lockedRand) Int63n(n int64) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Int63n(n)
}

// backoffJitter computes one backoff sleep for step d: d/2 + [0, d), i.e.
// d ± 50%. Split from the sleep so determinism is testable.
func backoffJitter(d time.Duration, rng *lockedRand) time.Duration {
	return d/2 + time.Duration(rng.Int63n(int64(d)))
}

// backoffSleep sleeps the current capped-exponential backoff step with
// ±50% jitter drawn from rng and advances *cur (doubling up to cap).
// Jitter keeps simultaneous retries from re-colliding on a recovering
// peer.
func backoffSleep(cur *time.Duration, max time.Duration, rng *lockedRand) {
	d := *cur
	if d <= 0 {
		return
	}
	time.Sleep(backoffJitter(d, rng))
	if next := 2 * d; next <= max {
		*cur = next
	} else {
		*cur = max
	}
}
