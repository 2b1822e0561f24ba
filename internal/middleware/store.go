package middleware

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/sim"
)

// Evicted describes a block pushed out of the store. Master victims carry
// their data — pinned on the caller's behalf — so the node layer can forward
// them to a peer (§3); call Release when the forward (or the decision to
// drop) is done.
type Evicted struct {
	ID     block.ID
	Master bool
	Age    int64
	// Data is the evicted master's content. It stays valid until Release:
	// the eviction transfers the store's payload reference to the Evicted,
	// so the bytes cannot be recycled while a forward is in flight.
	Data []byte
	buf  *payloadBuf
}

// Release drops the pinned payload reference carried by a master eviction.
// Safe on nil and on data-less evictions.
func (ev *Evicted) Release() {
	if ev == nil || ev.buf == nil {
		return
	}
	ev.buf.release()
	ev.buf, ev.Data = nil, nil
}

// emptyAge is the oldest-age mirror's sentinel for an empty store.
const emptyAge = math.MaxInt64

// Store is the thread-safe in-memory block store of a live node: one
// BlockCache replacement structure plus the actual payloads, under one
// mutex, so the §5 victim rule and the §3 arrival rule for forwards are
// applied against everything the node holds. Payloads are refcounted (see
// payloadBuf): every read path pins a reference before the lock drops, so
// the copy to the caller — or the socket write, for zero-copy serves —
// happens outside the lock and can never race a recycle.
type Store struct {
	policy core.Policy

	mu    sync.Mutex
	c     *cache.BlockCache
	data  map[block.ID]*payloadBuf
	clock int64
	// closed: the store is closed (Close) and caches nothing more.
	closed bool

	// oldest mirrors the age of the oldest block (emptyAge when none) on
	// every unlock, so OldestAge never takes the lock.
	oldest atomic.Int64
}

// NewStore builds a store holding at most capacity blocks under the given
// replacement policy.
func NewStore(capacity int, policy core.Policy) *Store {
	s := &Store{
		policy: policy,
		c:      cache.NewBlockCache(capacity),
		data:   make(map[block.ID]*payloadBuf, capacity),
	}
	s.oldest.Store(emptyAge)
	return s
}

// unlock publishes the oldest-age mirror and releases the mutex. Every
// operation that changes the cache must exit through it: the mirror is what
// keeps the lock-free OldestAge exact at quiescence.
func (s *Store) unlock() {
	if age, ok := s.c.OldestAge(); ok {
		s.oldest.Store(int64(age))
	} else {
		s.oldest.Store(emptyAge)
	}
	s.mu.Unlock()
}

// tick returns the access age for a clock reading now. Callers hold s.mu
// and read the clock before taking it, so no clock read (108 ns on a
// 2-vCPU KVM guest with the tsc clocksource) lengthens the critical
// section. Ages are wall-clock nanoseconds guarded to be monotone:
// comparable across nodes to the accuracy of their clocks, which is all
// the *approximate* global LRU of §3 requires.
func (s *Store) tick(now int64) sim.Time {
	if now <= s.clock {
		now = s.clock + 1
	}
	s.clock = now
	return sim.Time(now)
}

// GetRef returns a pinned reference to the cached content of id (touching
// LRU state) and whether it was present. The caller must release the
// reference; until then the bytes cannot be recycled by eviction,
// invalidation, or a write. This is the zero-copy read primitive — no byte
// is copied, under the lock or after it.
func (s *Store) GetRef(id block.ID) (*payloadBuf, bool) {
	now := time.Now().UnixNano()
	s.mu.Lock()
	defer s.unlock()
	if !s.c.Touch(id, s.tick(now)) {
		return nil, false
	}
	return s.data[id].retain(), true
}

// Get returns a copy of the cached content of id (touching LRU state) and
// whether it was present. The copy happens outside the lock;
// latency-critical paths use GetRef or CopyInto instead.
func (s *Store) Get(id block.ID) ([]byte, bool) {
	pb, ok := s.GetRef(id)
	if !ok {
		return nil, false
	}
	out := make([]byte, len(pb.data))
	copy(out, pb.data)
	pb.release()
	return out, true
}

// CopyInto copies the cached content of id into dst (touching LRU state),
// returning the byte count and whether it was present. The reference is
// pinned under the lock; the copy itself happens after the lock drops, so a
// warm local hit never holds the store mutex across a memcpy.
func (s *Store) CopyInto(id block.ID, dst []byte) (int, bool) {
	pb, ok := s.GetRef(id)
	if !ok {
		return 0, false
	}
	n := copy(dst, pb.data)
	pb.release()
	return n, true
}

// Contains reports presence without touching.
func (s *Store) Contains(id block.ID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c.Contains(id)
}

// IsMaster reports whether id is held as a master copy.
func (s *Store) IsMaster(id block.ID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c.IsMaster(id)
}

// Len reports the number of cached blocks.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c.Len()
}

// Masters reports the number of cached master copies.
func (s *Store) Masters() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c.Masters()
}

// OldestAge reports the logical age of the oldest block; ok is false when
// the store is empty. It reads the atomic mirror — no lock — because every
// outgoing frame stamps this value (§3 peer-age piggyback) and the stamp
// must never contend with the data plane.
func (s *Store) OldestAge() (int64, bool) {
	if a := s.oldest.Load(); a != emptyAge {
		return a, true
	}
	return 0, false
}

// Insert caches a copy of data as block id, evicting per the policy if the
// store is full; the caller keeps data. The returned eviction (nil if none,
// or the block was already present) tells the node layer what left memory;
// the caller decides forwarding and must Release it.
func (s *Store) Insert(id block.ID, data []byte, master bool) *Evicted {
	return s.InsertBuf(id, copyPayloadBuf(data), master)
}

// InsertBuf is Insert taking ownership of one reference to pb (retain
// first to keep using it past the call).
func (s *Store) InsertBuf(id block.ID, pb *payloadBuf, master bool) *Evicted {
	now := time.Now().UnixNano()
	s.mu.Lock()
	defer s.unlock()
	return s.insertLocked(id, pb, master, now)
}

func (s *Store) insertLocked(id block.ID, pb *payloadBuf, master bool, now int64) *Evicted {
	if s.closed {
		pb.release()
		return nil
	}
	if s.c.Contains(id) {
		if master {
			s.c.Promote(id)
		}
		old := s.data[id]
		s.data[id] = pb
		old.release()
		return nil
	}
	var ev *Evicted
	if s.c.Full() {
		ev = s.evictOneLocked()
	}
	s.c.Insert(id, master, s.tick(now))
	s.data[id] = pb
	return ev
}

// evictOneLocked applies the replacement policy (cache.BlockCache's
// EvictVictim, the simulator's rule too). A master victim's payload
// reference transfers to the Evicted (the §3 second-chance forward reads it
// after the lock drops); non-master victims release theirs immediately.
// Callers hold s.mu.
func (s *Store) evictOneLocked() *Evicted {
	id, master, age, ok := s.c.EvictVictim(s.policy == core.PolicyMaster)
	if !ok {
		return nil
	}
	ev := &Evicted{ID: id, Master: master, Age: int64(age)}
	if master {
		ev.buf = s.data[id] // transfer the store's reference
		ev.Data = ev.buf.data
	} else {
		s.data[id].release()
	}
	delete(s.data, id)
	return ev
}

// GetRun appends pinned references for the contiguous run of cached blocks
// of f starting at first (at most max blocks) to out, touching each served
// block's LRU state. It stops at the first gap and returns the extended
// slice and a bitmask marking which served blocks are held as master copies
// (bit i = block first+i). The walk is one critical section that neither
// reads the clock nor allocates; no byte is copied or concatenated — the
// caller points reply segments at the pinned buffers and releases them
// after the socket write.
func (s *Store) GetRun(f block.FileID, first int32, max int, out []*payloadBuf) ([]*payloadBuf, uint32) {
	var masters uint32
	out = slices.Grow(out, max)
	now := time.Now().UnixNano()
	s.mu.Lock()
	defer s.unlock()
	for count := 0; count < max; count++ {
		id := block.ID{File: f, Idx: first + int32(count)}
		if !s.c.Touch(id, s.tick(now)) {
			break
		}
		if s.c.IsMaster(id) {
			masters |= 1 << uint(count)
		}
		out = append(out, s.data[id].retain())
	}
	return out, masters
}

// InsertRun installs a fetched run of contiguous blocks (blocks[i] is block
// first+i) in one critical section, taking ownership of one reference to
// each, and returns every eviction the installs caused, in order. Master
// victims among them get the §3 second chance from the caller, exactly as
// with Insert.
func (s *Store) InsertRun(f block.FileID, first int32, blocks []*payloadBuf, master bool) []*Evicted {
	var evs []*Evicted
	now := time.Now().UnixNano()
	s.mu.Lock()
	defer s.unlock()
	for i, pb := range blocks {
		if ev := s.insertLocked(block.ID{File: f, Idx: first + int32(i)}, pb, master, now); ev != nil {
			evs = append(evs, ev)
		}
	}
	return evs
}

// AcceptForward applies the §3 arrival rules for a forwarded master:
// dropped if everything the node holds is younger (accepted=false);
// otherwise the node's oldest block is discarded outright (never
// re-forwarded — no cascades) and the block is installed with its original
// age. displaced reports what was discarded to make room (its directory
// entry must be dropped if a master; it never carries data). The store
// caches a copy of data; the caller keeps data.
func (s *Store) AcceptForward(id block.ID, data []byte, age int64) (accepted bool, displaced *Evicted) {
	pb := copyPayloadBuf(data) // outside the lock
	s.mu.Lock()
	defer s.unlock()
	if s.closed {
		pb.release()
		return false, nil
	}
	if s.c.Contains(id) {
		s.c.Promote(id)
		old := s.data[id]
		s.data[id] = pb
		old.release()
		return true, nil
	}
	if s.c.Full() {
		if oldest, ok := s.c.OldestAge(); ok && int64(oldest) >= age {
			pb.release()
			return false, nil
		}
		vid, vMaster, vAge, _ := s.c.EvictOldest()
		displaced = &Evicted{ID: vid, Master: vMaster, Age: int64(vAge)}
		s.data[vid].release()
		delete(s.data, vid)
	}
	s.c.Insert(id, true, sim.Time(age))
	s.data[id] = pb
	return true, displaced
}

// Remove discards id; reports presence and master role. The payload is
// released — but any reply that pinned a reference first keeps its bytes.
func (s *Store) Remove(id block.ID) (present, master bool) {
	s.mu.Lock()
	defer s.unlock()
	present, master = s.c.Remove(id)
	if present {
		s.data[id].release()
		delete(s.data, id)
	}
	return present, master
}

// RemoveAll discards every cached block, returning the IDs that were held
// as masters (their directory entries must be dropped by the caller). Used
// when a truncated invalidation window makes the whole cache suspect.
func (s *Store) RemoveAll() []block.ID {
	var masters []block.ID
	s.mu.Lock()
	defer s.unlock()
	for id, pb := range s.data {
		if _, master := s.c.Remove(id); master {
			masters = append(masters, id)
		}
		pb.release()
	}
	s.data = make(map[block.ID]*payloadBuf)
	return masters
}

// Close releases every cached block and closes the store: from then on an
// insert or a forward releases the buffer it is handed instead of caching
// it. A node closes its store on Close, so every frame it cached goes back
// to the arena; a pin taken before Close stays valid until it is released.
func (s *Store) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.RemoveAll()
}
