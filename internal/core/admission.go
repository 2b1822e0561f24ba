package core

import "sync"

// Admission is a TinyLFU-style admission filter: a doorkeeper bloom filter
// absorbing first touches, backed by a small capped count-min sketch of
// recent access frequencies, periodically halved so the estimate tracks a
// sliding window. A cache uses it to keep one-hit wonders from evicting
// blocks with an established access frequency: a candidate is admitted only
// when it has been seen more often than the victim it would displace.
type Admission struct {
	mu      sync.Mutex
	rows    [sketchRows][]uint8
	mask    uint64
	door    []uint64
	samples uint64
	cap     uint64
}

const (
	sketchRows = 4
	// counterMax caps each sketch counter; the halving reset keeps relative
	// frequencies meaningful well below saturation.
	counterMax = 15
)

// NewAdmission sizes the filter for a cache of roughly capacity entries:
// the sketch is wide enough that collisions do not swamp the estimates, and
// the sample window (after which all counters halve) spans several times
// the cache size, the TinyLFU reset rule.
func NewAdmission(capacity int) *Admission {
	if capacity < 16 {
		capacity = 16
	}
	w := uint64(64)
	for w < uint64(capacity)*4 {
		w <<= 1
	}
	a := &Admission{mask: w - 1, cap: uint64(capacity) * 10}
	for i := range a.rows {
		a.rows[i] = make([]uint8, w)
	}
	a.door = make([]uint64, w/64)
	return a
}

// mix is splitmix64's finalizer: the sketch's hash family, one seed per row.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

var rowSeeds = [sketchRows]uint64{0x9e3779b97f4a7c15, 0xc2b2ae3d27d4eb4f, 0x165667b19e3779f9, 0x27d4eb2f165667c5}

func (a *Admission) doorHas(h uint64) bool {
	i := h & a.mask
	return a.door[i/64]&(1<<(i%64)) != 0
}

func (a *Admission) doorSet(h uint64) {
	i := h & a.mask
	a.door[i/64] |= 1 << (i % 64)
}

// Observe records one access to key.
func (a *Admission) Observe(key uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	h := mix(key)
	if !a.doorHas(h) {
		// First sighting in this window: the doorkeeper absorbs it, keeping
		// one-hit wonders out of the sketch entirely.
		a.doorSet(h)
	} else {
		for i := range a.rows {
			j := mix(key^rowSeeds[i]) & a.mask
			if a.rows[i][j] < counterMax {
				a.rows[i][j]++
			}
		}
	}
	a.samples++
	if a.samples >= a.cap {
		a.resetLocked()
	}
}

// resetLocked is the TinyLFU aging step: all counters halve and the
// doorkeeper clears, so the estimate approximates frequency over a sliding
// window. Callers hold a.mu.
func (a *Admission) resetLocked() {
	for i := range a.rows {
		for j := range a.rows[i] {
			a.rows[i][j] >>= 1
		}
	}
	for i := range a.door {
		a.door[i] = 0
	}
	a.samples /= 2
}

// estimateLocked reports key's frequency estimate. Callers hold a.mu.
func (a *Admission) estimateLocked(key uint64) uint32 {
	est := uint32(counterMax + 1)
	for i := range a.rows {
		j := mix(key^rowSeeds[i]) & a.mask
		if c := uint32(a.rows[i][j]); c < est {
			est = c
		}
	}
	if a.doorHas(mix(key)) {
		est++
	}
	return est
}

// Estimate reports key's recent-access frequency estimate.
func (a *Admission) Estimate(key uint64) uint32 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.estimateLocked(key)
}

// admitRepeatTouch is the estimate at which a candidate is admitted without
// the frequency duel: doorkeeper + one sketch count means it was touched at
// least twice inside the current window.
const admitRepeatTouch = 2

// Admit decides whether candidate should displace victim. A candidate with
// an established recent history — touched at least twice in the current
// window — is admitted outright: this is the recency path W-TinyLFU's
// window segment exists for, and without it a flash crowd's blocks (zero
// frequency history, suddenly the hottest data in the cluster) lose every
// duel against stale-high incumbents during exactly the window that
// matters. A first-touch candidate is admitted only when its estimated
// frequency strictly exceeds the victim's, so a one-hit wonder never evicts
// an established block.
func (a *Admission) Admit(candidate, victim uint64) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	c := a.estimateLocked(candidate)
	if c >= admitRepeatTouch {
		return true
	}
	return c > a.estimateLocked(victim)
}
