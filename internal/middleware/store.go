package middleware

import (
	"math"
	"runtime"
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

// shardHash is the shard hash of a block ID: the ID folded into 64 bits
// (file in the high half, index in the low) through the splitmix64
// finalizer, which spreads those structured bits uniformly over the shard
// space, so the blocks of one file stripe across every shard.
func shardHash(id block.ID) uint64 {
	x := uint64(id.File)<<32 | uint64(uint32(id.Idx))
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// emptyAge is the per-shard oldest-age sentinel for an empty shard.
const emptyAge = math.MaxInt64

// storeShard is one lock stripe of the store: its own mutex, replacement
// structure, payload map, and monotone clock. Aggregate counters are
// mirrored into atomics on every unlock, so Len/Masters/OldestAge never take
// a shard lock.
type storeShard struct {
	mu    sync.Mutex
	c     *cache.BlockCache
	data  map[block.ID]*payloadBuf
	clock int64
	// closed: the store is closed (Store.Close) and caches nothing more.
	closed bool

	oldest atomic.Int64 // age of the shard's oldest block; emptyAge when none
	nlen   atomic.Int64
	nmast  atomic.Int64
}

// unlock publishes the shard's aggregate counters and releases its mutex.
// Every locked operation must exit through it: the mirrors are what keep
// the lock-free aggregate reads exact at quiescence.
func (sh *storeShard) unlock() {
	if age, ok := sh.c.OldestAge(); ok {
		sh.oldest.Store(int64(age))
	} else {
		sh.oldest.Store(emptyAge)
	}
	sh.nlen.Store(int64(sh.c.Len()))
	sh.nmast.Store(int64(sh.c.Masters()))
	sh.mu.Unlock()
}

// tick returns the current access age. Callers hold sh.mu. Ages are
// wall-clock nanoseconds guarded to be per-shard monotone: comparable
// across nodes to the accuracy of their clocks, which is all the
// *approximate* global LRU of §3 requires.
func (sh *storeShard) tick() sim.Time {
	now := time.Now().UnixNano()
	if now <= sh.clock {
		now = sh.clock + 1
	}
	sh.clock = now
	return sim.Time(now)
}

// Store is the thread-safe in-memory block store of a live node: the
// BlockCache replacement structure plus the actual payloads, lock-striped
// into power-of-two shards keyed by a block-ID hash so concurrent hits on a
// multicore host scale instead of convoying on one mutex. Payloads are
// refcounted (see payloadBuf): every read path pins a reference before the
// shard lock drops, so the copy to the caller — or the socket write, for
// zero-copy serves — happens outside the lock and can never race a recycle.
//
// Replacement quality: each shard runs the paper's policy over its own
// partition. Consistent-hash-partitioned LRU asymptotically matches
// monolithic LRU miss ratio (Asymptotic Miss Ratio of LRU Caching with
// Consistent Hashing), and shard count 1 (NewStore) is the exact single-lock
// global LRU.
type Store struct {
	policy core.Policy
	shards []*storeShard
	mask   uint64
}

// resolveShards picks a shard count: requested (rounded up to a power
// of two) or, for requested <= 0, the smallest power of two covering
// runtime.NumCPU, capped at 64. The count never exceeds capacity — every
// shard's BlockCache needs at least one slot.
func resolveShards(requested, capacity int) int {
	n := requested
	if n <= 0 {
		n = runtime.NumCPU()
	}
	p := 1
	for p < n && p < 64 {
		p <<= 1
	}
	for p > capacity && p > 1 {
		p >>= 1
	}
	return p
}

// NewStore builds a single-shard store holding at most capacity blocks
// under the given replacement policy — exact global LRU order, for tests
// and the benchmark's store rung. A node's store is sized to the host.
func NewStore(capacity int, policy core.Policy) *Store {
	return newShardedStore(capacity, policy, 1)
}

// newShardedStore builds a store striped over the given shard count
// (rounded up to a power of two, capped at capacity; <= 0 selects the
// NumCPU default). Capacity is divided across shards with the remainder
// spread over the first shards, so per-shard capacities sum exactly to the
// configured total.
func newShardedStore(capacity int, policy core.Policy, shards int) *Store {
	n := resolveShards(shards, capacity)
	s := &Store{policy: policy, shards: make([]*storeShard, n), mask: uint64(n - 1)}
	base, extra := capacity/n, capacity%n
	for i := range s.shards {
		c := base
		if i < extra {
			c++
		}
		s.shards[i] = &storeShard{
			c:    cache.NewBlockCache(c),
			data: make(map[block.ID]*payloadBuf, c),
		}
		s.shards[i].oldest.Store(emptyAge)
	}
	return s
}

// ShardCount reports the number of lock stripes.
func (s *Store) ShardCount() int { return len(s.shards) }

// shardOf routes a block ID to its lock stripe.
func (s *Store) shardOf(id block.ID) *storeShard {
	if len(s.shards) == 1 {
		return s.shards[0]
	}
	return s.shards[shardHash(id)&s.mask]
}

// GetRef returns a pinned reference to the cached content of id (touching
// LRU state) and whether it was present. The caller must release the
// reference; until then the bytes cannot be recycled by eviction,
// invalidation, or a write. This is the zero-copy read primitive — no byte
// is copied, under the lock or after it.
func (s *Store) GetRef(id block.ID) (*payloadBuf, bool) {
	sh := s.shardOf(id)
	sh.mu.Lock()
	defer sh.unlock()
	if !sh.c.Touch(id, sh.tick()) {
		return nil, false
	}
	return sh.data[id].retain(), true
}

// Get returns a copy of the cached content of id (touching LRU state) and
// whether it was present. The copy happens outside the shard lock;
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
// pinned under the shard lock; the copy itself happens after the lock
// drops, so a warm local hit never holds a shard mutex across a memcpy.
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
	sh := s.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.c.Contains(id)
}

// IsMaster reports whether id is held as a master copy.
func (s *Store) IsMaster(id block.ID) bool {
	sh := s.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.c.IsMaster(id)
}

// Len reports the number of cached blocks (lock-free sum of the per-shard
// mirrors; exact whenever no shard lock is held).
func (s *Store) Len() int {
	var n int64
	for _, sh := range s.shards {
		n += sh.nlen.Load()
	}
	return int(n)
}

// Masters reports the number of cached master copies.
func (s *Store) Masters() int {
	var n int64
	for _, sh := range s.shards {
		n += sh.nmast.Load()
	}
	return int(n)
}

// OldestAge reports the logical age of the oldest block; ok is false when
// the store is empty. It reads the per-shard atomic mirrors — no lock —
// because every outgoing frame stamps this value (§3 peer-age piggyback)
// and the stamp must never contend with the data plane.
func (s *Store) OldestAge() (int64, bool) {
	oldest, ok := int64(emptyAge), false
	for _, sh := range s.shards {
		if a := sh.oldest.Load(); a != emptyAge {
			ok = true
			if a < oldest {
				oldest = a
			}
		}
	}
	if !ok {
		return 0, false
	}
	return oldest, true
}

// Insert caches a copy of data as block id, evicting per the policy if the
// shard is full; the caller keeps data. The returned eviction (nil if none,
// or the block was already present) tells the node layer what left memory;
// the caller decides forwarding and must Release it.
func (s *Store) Insert(id block.ID, data []byte, master bool) *Evicted {
	return s.InsertBuf(id, copyPayloadBuf(data), master)
}

// InsertBuf is Insert taking ownership of one reference to pb (retain
// first to keep using it past the call).
func (s *Store) InsertBuf(id block.ID, pb *payloadBuf, master bool) *Evicted {
	sh := s.shardOf(id)
	sh.mu.Lock()
	defer sh.unlock()
	return s.insertLocked(sh, id, pb, master)
}

func (s *Store) insertLocked(sh *storeShard, id block.ID, pb *payloadBuf, master bool) *Evicted {
	if sh.closed {
		pb.release()
		return nil
	}
	if sh.c.Contains(id) {
		if master {
			sh.c.Promote(id)
		}
		old := sh.data[id]
		sh.data[id] = pb
		old.release()
		return nil
	}
	var ev *Evicted
	if sh.c.Full() {
		ev = s.evictOneLocked(sh)
	}
	sh.c.Insert(id, master, sh.tick())
	sh.data[id] = pb
	return ev
}

// evictOneLocked applies the replacement policy to one shard. A master
// victim's payload reference transfers to the Evicted (the §3 second-chance
// forward reads it after the lock drops); non-master victims release theirs
// immediately. Callers hold sh.mu.
func (s *Store) evictOneLocked(sh *storeShard) *Evicted {
	if _, oldestMaster, _, ok := sh.c.Oldest(); ok &&
		s.policy == core.PolicyMaster && oldestMaster && sh.c.NonMasters() > 0 {
		id, age, _ := sh.c.EvictOldestNonMaster()
		ev := &Evicted{ID: id, Master: false, Age: int64(age)}
		sh.data[id].release()
		delete(sh.data, id)
		return ev
	}
	id, master, age, ok := sh.c.EvictOldest()
	if !ok {
		return nil
	}
	ev := &Evicted{ID: id, Master: master, Age: int64(age)}
	if master {
		ev.buf = sh.data[id] // transfer the store's reference
		ev.Data = ev.buf.data
	} else {
		sh.data[id].release()
	}
	delete(sh.data, id)
	return ev
}

// GetRun appends pinned references for the contiguous run of cached blocks
// of f starting at first (at most max blocks) to out, touching each served
// block's LRU state. It stops at the first gap and returns the extended
// slice and a bitmask marking which served blocks are held as master copies
// (bit i = block first+i). No byte is copied or concatenated — the caller
// points reply segments at the pinned buffers and releases them after the
// socket write. Blocks of a run stripe across shards, so the walk locks
// each block's shard in turn (one short critical section per block, never
// one long one).
func (s *Store) GetRun(f block.FileID, first int32, max int, out []*payloadBuf) ([]*payloadBuf, uint32) {
	var masters uint32
	for count := 0; count < max; count++ {
		id := block.ID{File: f, Idx: first + int32(count)}
		sh := s.shardOf(id)
		sh.mu.Lock()
		if !sh.c.Touch(id, sh.tick()) {
			sh.unlock()
			break
		}
		if sh.c.IsMaster(id) {
			masters |= 1 << uint(count)
		}
		pb := sh.data[id].retain()
		sh.unlock()
		out = append(out, pb)
	}
	return out, masters
}

// InsertRun installs a fetched run of contiguous blocks (blocks[i] is block
// first+i), taking ownership of one reference to each, and returns every
// eviction the installs caused, in order. Master victims among them get the
// §3 second chance from the caller, exactly as with Insert.
func (s *Store) InsertRun(f block.FileID, first int32, blocks []*payloadBuf, master bool) []*Evicted {
	var evs []*Evicted
	for i, pb := range blocks {
		id := block.ID{File: f, Idx: first + int32(i)}
		sh := s.shardOf(id)
		sh.mu.Lock()
		ev := s.insertLocked(sh, id, pb, master)
		sh.unlock()
		if ev != nil {
			evs = append(evs, ev)
		}
	}
	return evs
}

// AcceptForward applies the §3 arrival rules for a forwarded master:
// dropped if everything local (in the block's shard) is younger
// (accepted=false); otherwise the shard's oldest is discarded outright
// (never re-forwarded — no cascades) and the block is installed with its
// original age. displaced reports what was discarded to make room (its
// directory entry must be dropped if a master; it never carries data). The
// store caches a copy of data; the caller keeps data.
func (s *Store) AcceptForward(id block.ID, data []byte, age int64) (accepted bool, displaced *Evicted) {
	pb := copyPayloadBuf(data) // outside the shard lock
	sh := s.shardOf(id)
	sh.mu.Lock()
	defer sh.unlock()
	if sh.closed {
		pb.release()
		return false, nil
	}
	if sh.c.Contains(id) {
		sh.c.Promote(id)
		old := sh.data[id]
		sh.data[id] = pb
		old.release()
		return true, nil
	}
	if sh.c.Full() {
		if oldest, ok := sh.c.OldestAge(); ok && int64(oldest) >= age {
			pb.release()
			return false, nil
		}
		vid, vMaster, vAge, _ := sh.c.EvictOldest()
		displaced = &Evicted{ID: vid, Master: vMaster, Age: int64(vAge)}
		sh.data[vid].release()
		delete(sh.data, vid)
	}
	sh.c.Insert(id, true, sim.Time(age))
	sh.data[id] = pb
	return true, displaced
}

// Remove discards id; reports presence and master role. The payload is
// released — but any reply that pinned a reference first keeps its bytes.
func (s *Store) Remove(id block.ID) (present, master bool) {
	sh := s.shardOf(id)
	sh.mu.Lock()
	defer sh.unlock()
	present, master = sh.c.Remove(id)
	if present {
		sh.data[id].release()
		delete(sh.data, id)
	}
	return present, master
}

// RemoveAll discards every cached block, returning the IDs that were held
// as masters (their directory entries must be dropped by the caller). Used
// when a truncated invalidation catch-up makes the whole cache suspect.
func (s *Store) RemoveAll() []block.ID {
	var masters []block.ID
	for _, sh := range s.shards {
		sh.mu.Lock()
		for id, pb := range sh.data {
			if _, master := sh.c.Remove(id); master {
				masters = append(masters, id)
			}
			pb.release()
		}
		sh.data = make(map[block.ID]*payloadBuf)
		sh.unlock()
	}
	return masters
}

// Close releases every cached block and closes the store: from then on an
// insert or a forward releases the buffer it is handed instead of caching
// it. A node closes its store on Close, so every frame it cached goes back
// to the arena; a pin taken before Close stays valid until it is released.
func (s *Store) Close() {
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.closed = true
		sh.mu.Unlock()
	}
	s.RemoveAll()
}
