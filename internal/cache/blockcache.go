// Package cache implements the per-node memory caches: the block cache used
// by the cooperative caching middleware (with the master/non-master
// distinction its replacement policies need) and the whole-file cache used
// by the L2S baseline.
package cache

import (
	"fmt"

	"repro/internal/block"
	"repro/internal/sim"
)

// Entry is one cached block.
type entry struct {
	id     block.ID
	master bool
	age    sim.Time // last access (virtual) time; LRU order key

	// intrusive links: all-blocks list, ordered oldest→youngest
	prev, next *entry
	// intrusive links: non-master sublist, ordered oldest→youngest
	nmPrev, nmNext *entry
}

// BlockCache is a fixed-capacity block cache with global-LRU ordering and a
// secondary LRU over non-master copies only. Both orderings are needed by
// the paper's replacement policies: basic cooperative caching evicts the
// locally oldest block (giving masters a second chance via forwarding),
// while the master-preserving variant evicts the oldest *non-master* copy
// whenever one exists.
type BlockCache struct {
	capacity int
	entries  map[block.ID]*entry

	head, tail     *entry // all blocks: head = oldest
	nmHead, nmTail *entry // non-master copies: head = oldest

	masters int
}

// NewBlockCache returns a cache holding at most capacity blocks.
func NewBlockCache(capacity int) *BlockCache {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: non-positive capacity %d", capacity))
	}
	return &BlockCache{
		capacity: capacity,
		entries:  make(map[block.ID]*entry, capacity),
	}
}

// Len reports the number of cached blocks.
func (c *BlockCache) Len() int { return len(c.entries) }

// Cap reports the capacity in blocks.
func (c *BlockCache) Cap() int { return c.capacity }

// Full reports whether an insertion requires an eviction first.
func (c *BlockCache) Full() bool { return len(c.entries) >= c.capacity }

// Masters reports how many cached blocks are master copies.
func (c *BlockCache) Masters() int { return c.masters }

// NonMasters reports how many cached blocks are non-master copies.
func (c *BlockCache) NonMasters() int { return len(c.entries) - c.masters }

// Contains reports whether id is cached, without touching its LRU position.
func (c *BlockCache) Contains(id block.ID) bool {
	_, ok := c.entries[id]
	return ok
}

// IsMaster reports whether id is cached as a master copy.
func (c *BlockCache) IsMaster(id block.ID) bool {
	e, ok := c.entries[id]
	return ok && e.master
}

// Touch records an access to id at time now, moving it to the young end.
// It reports whether the block was present.
func (c *BlockCache) Touch(id block.ID, now sim.Time) bool {
	e, ok := c.entries[id]
	if !ok {
		return false
	}
	if now < e.age {
		panic("cache: Touch with time before last access")
	}
	e.age = now
	c.unlink(e)
	c.linkYoungest(e)
	if !e.master {
		c.nmUnlink(e)
		c.nmLinkYoungest(e)
	}
	return true
}

// Insert adds id with the given access age. The caller must have made room
// (Insert panics if the cache is full or the block already present — both
// indicate protocol bugs in the caller). age may be older than resident
// blocks (a forwarded master carries its original age); the entry is placed
// in age order.
func (c *BlockCache) Insert(id block.ID, master bool, age sim.Time) {
	if c.Full() {
		panic("cache: Insert into full cache")
	}
	if _, ok := c.entries[id]; ok {
		panic(fmt.Sprintf("cache: duplicate insert of %v", id))
	}
	e := &entry{id: id, master: master, age: age}
	c.entries[id] = e
	c.linkOrdered(e)
	if master {
		c.masters++
	} else {
		c.nmLinkOrdered(e)
	}
}

// Remove drops id from the cache; it reports whether it was present and
// whether it was a master copy.
func (c *BlockCache) Remove(id block.ID) (present, master bool) {
	e, ok := c.entries[id]
	if !ok {
		return false, false
	}
	c.drop(e)
	return true, e.master
}

// Promote marks a cached non-master copy as the master (used when a
// forwarded master lands on a node already holding a replica).
func (c *BlockCache) Promote(id block.ID) bool {
	e, ok := c.entries[id]
	if !ok || e.master {
		return false
	}
	e.master = true
	c.masters++
	c.nmUnlink(e)
	return true
}

// Oldest returns the globally oldest cached block without removing it.
// ok is false when the cache is empty.
func (c *BlockCache) Oldest() (id block.ID, master bool, age sim.Time, ok bool) {
	if c.head == nil {
		return block.ID{}, false, 0, false
	}
	return c.head.id, c.head.master, c.head.age, true
}

// OldestAge reports the age of the oldest block; ok is false when empty.
func (c *BlockCache) OldestAge() (sim.Time, bool) {
	if c.head == nil {
		return 0, false
	}
	return c.head.age, true
}

// OldestNonMaster returns the oldest non-master copy, if any.
func (c *BlockCache) OldestNonMaster() (id block.ID, age sim.Time, ok bool) {
	if c.nmHead == nil {
		return block.ID{}, 0, false
	}
	return c.nmHead.id, c.nmHead.age, true
}

// EvictOldest removes and returns the oldest block.
func (c *BlockCache) EvictOldest() (id block.ID, master bool, age sim.Time, ok bool) {
	if c.head == nil {
		return block.ID{}, false, 0, false
	}
	e := c.head
	c.drop(e)
	return e.id, e.master, e.age, true
}

// EvictOldestNonMaster removes and returns the oldest non-master copy.
func (c *BlockCache) EvictOldestNonMaster() (id block.ID, age sim.Time, ok bool) {
	if c.nmHead == nil {
		return block.ID{}, 0, false
	}
	e := c.nmHead
	c.drop(e)
	return e.id, e.age, true
}

// EvictVictim removes and returns the replacement victim: the oldest block,
// except that with keepMasters (§5's master-preserving policy) an oldest
// master is passed over for the oldest non-master while any non-master
// copy remains. The simulator and the live store both evict through it.
func (c *BlockCache) EvictVictim(keepMasters bool) (id block.ID, master bool, age sim.Time, ok bool) {
	if keepMasters && c.head != nil && c.head.master && c.nmHead != nil {
		id, age, ok = c.EvictOldestNonMaster()
		return id, false, age, ok
	}
	return c.EvictOldest()
}

func (c *BlockCache) drop(e *entry) {
	c.unlink(e)
	if e.master {
		c.masters--
	} else {
		c.nmUnlink(e)
	}
	delete(c.entries, e.id)
}

// --- intrusive list plumbing (all-blocks list) ---

func (c *BlockCache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *BlockCache) linkYoungest(e *entry) {
	e.prev = c.tail
	e.next = nil
	if c.tail != nil {
		c.tail.next = e
	} else {
		c.head = e
	}
	c.tail = e
}

// linkOrdered inserts e in age order. Almost all insertions are youngest
// (age = now); forwarded masters are near-oldest, so we scan from whichever
// end is closer in expectation: youngest first, falling back to a walk.
func (c *BlockCache) linkOrdered(e *entry) {
	if c.tail == nil || c.tail.age <= e.age {
		c.linkYoungest(e)
		return
	}
	// Walk from the old end; forwarded blocks belong near the head.
	cur := c.head
	for cur != nil && cur.age <= e.age {
		cur = cur.next
	}
	// Insert before cur.
	if cur == nil {
		c.linkYoungest(e)
		return
	}
	e.next = cur
	e.prev = cur.prev
	if cur.prev != nil {
		cur.prev.next = e
	} else {
		c.head = e
	}
	cur.prev = e
}

// --- non-master sublist plumbing ---

func (c *BlockCache) nmUnlink(e *entry) {
	if e.nmPrev != nil {
		e.nmPrev.nmNext = e.nmNext
	} else {
		c.nmHead = e.nmNext
	}
	if e.nmNext != nil {
		e.nmNext.nmPrev = e.nmPrev
	} else {
		c.nmTail = e.nmPrev
	}
	e.nmPrev, e.nmNext = nil, nil
}

func (c *BlockCache) nmLinkYoungest(e *entry) {
	e.nmPrev = c.nmTail
	e.nmNext = nil
	if c.nmTail != nil {
		c.nmTail.nmNext = e
	} else {
		c.nmHead = e
	}
	c.nmTail = e
}

func (c *BlockCache) nmLinkOrdered(e *entry) {
	if c.nmTail == nil || c.nmTail.age <= e.age {
		c.nmLinkYoungest(e)
		return
	}
	cur := c.nmHead
	for cur != nil && cur.age <= e.age {
		cur = cur.nmNext
	}
	if cur == nil {
		c.nmLinkYoungest(e)
		return
	}
	e.nmNext = cur
	e.nmPrev = cur.nmPrev
	if cur.nmPrev != nil {
		cur.nmPrev.nmNext = e
	} else {
		c.nmHead = e
	}
	cur.nmPrev = e
}

// checkInvariants validates the internal structure; used by tests.
func (c *BlockCache) checkInvariants() error {
	// List order must be nondecreasing age; counts must match.
	n, masters := 0, 0
	var last sim.Time = -1 << 62
	for e := c.head; e != nil; e = e.next {
		if e.age < last {
			return fmt.Errorf("cache: LRU order violated at %v", e.id)
		}
		last = e.age
		n++
		if e.master {
			masters++
		}
		if _, ok := c.entries[e.id]; !ok {
			return fmt.Errorf("cache: listed block %v not in map", e.id)
		}
	}
	if n != len(c.entries) {
		return fmt.Errorf("cache: list has %d entries, map %d", n, len(c.entries))
	}
	if masters != c.masters {
		return fmt.Errorf("cache: master count %d, counted %d", c.masters, masters)
	}
	nm := 0
	last = -1 << 62
	for e := c.nmHead; e != nil; e = e.nmNext {
		if e.master {
			return fmt.Errorf("cache: master %v in non-master list", e.id)
		}
		if e.age < last {
			return fmt.Errorf("cache: non-master order violated at %v", e.id)
		}
		last = e.age
		nm++
	}
	if nm != len(c.entries)-c.masters {
		return fmt.Errorf("cache: non-master list has %d, want %d", nm, len(c.entries)-c.masters)
	}
	if len(c.entries) > c.capacity {
		return fmt.Errorf("cache: over capacity: %d > %d", len(c.entries), c.capacity)
	}
	return nil
}
