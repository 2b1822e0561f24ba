package middleware

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"repro/internal/block"
	"repro/internal/core"
)

// The shard-count rules of resolveShards: power-of-two rounding, the NumCPU
// default, the 64 cap, and the capacity clamp (every shard needs at least
// one slot).
func TestResolveStoreShards(t *testing.T) {
	cases := []struct {
		requested, capacity, want int
	}{
		{1, 1024, 1},
		{2, 1024, 2},
		{3, 1024, 4},
		{5, 1024, 8},
		{64, 1024, 64},
		{1000, 1024, 64}, // cap at 64
		{8, 2, 2},        // capacity clamp
		{8, 1, 1},
		{16, 9, 8}, // clamp rounds down in powers of two
	}
	for _, c := range cases {
		if got := resolveShards(c.requested, c.capacity); got != c.want {
			t.Errorf("resolveShards(%d, %d) = %d, want %d", c.requested, c.capacity, got, c.want)
		}
	}
	// The default (<= 0) covers NumCPU with a power of two.
	def := resolveShards(0, 1<<20)
	if def < 1 || def&(def-1) != 0 || def > 64 {
		t.Fatalf("default shard count %d not a power of two in [1, 64]", def)
	}
	if def < runtime.NumCPU() && def != 64 {
		t.Fatalf("default shard count %d does not cover NumCPU %d", def, runtime.NumCPU())
	}
}

// TestShardedStoreCapacitySums: per-shard capacities sum exactly to the
// configured total, including when the capacity does not divide evenly, and
// the aggregate Len never exceeds it under full-store churn.
func TestShardedStoreCapacitySums(t *testing.T) {
	const capacity, shards = 21, 4 // 21 = 5+5+5+6: remainder spread
	s := newShardedStore(capacity, core.PolicyMaster, shards)
	if s.ShardCount() != shards {
		t.Fatalf("shard count %d, want %d", s.ShardCount(), shards)
	}
	perShard := 0
	for _, sh := range s.shards {
		perShard += sh.c.Cap()
	}
	if perShard != capacity {
		t.Fatalf("per-shard capacities sum to %d, want %d", perShard, capacity)
	}
	// Overfill by 4x: Len can never exceed capacity, and with the uniform
	// shard hash every shard ends exactly full.
	for i := 0; i < 4*capacity; i++ {
		if ev := s.Insert(sid(i, 0), []byte{byte(i)}, false); ev != nil {
			ev.Release()
		}
		if s.Len() > capacity {
			t.Fatalf("Len %d exceeds capacity %d after %d inserts", s.Len(), capacity, i+1)
		}
	}
	for i, sh := range s.shards {
		if sh.c.Len() != sh.c.Cap() {
			t.Errorf("shard %d holds %d blocks, capacity %d (should be full)", i, sh.c.Len(), sh.c.Cap())
		}
	}
	if s.Len() != capacity {
		t.Fatalf("full store Len %d, want %d", s.Len(), capacity)
	}
}

// TestShardedStoreCountersExact: the lock-free aggregate counters (Len,
// Masters, OldestAge) stay exact across master inserts, non-master inserts,
// and removals on a multi-shard store.
func TestShardedStoreCountersExact(t *testing.T) {
	s := newShardedStore(64, core.PolicyMaster, 8)
	for i := 0; i < 16; i++ {
		s.Insert(sid(1, i), []byte("m"), true)
	}
	for i := 0; i < 8; i++ {
		s.Insert(sid(2, i), []byte("r"), false)
	}
	if s.Len() != 24 || s.Masters() != 16 {
		t.Fatalf("len/masters = %d/%d, want 24/16", s.Len(), s.Masters())
	}
	if _, ok := s.OldestAge(); !ok {
		t.Fatal("OldestAge empty on a populated store")
	}
	for i := 0; i < 16; i++ {
		if present, master := s.Remove(sid(1, i)); !present || !master {
			t.Fatalf("master %d: present=%v master=%v", i, present, master)
		}
	}
	for i := 0; i < 8; i++ {
		if present, master := s.Remove(sid(2, i)); !present || master {
			t.Fatalf("non-master %d: present=%v master=%v", i, present, master)
		}
	}
	if s.Len() != 0 || s.Masters() != 0 {
		t.Fatalf("emptied store len/masters = %d/%d", s.Len(), s.Masters())
	}
	if _, ok := s.OldestAge(); ok {
		t.Fatal("OldestAge reports a block on an empty store")
	}
}

// TestShardedStoreReplicaEviction: a full multi-shard store of non-master
// copies (the paper's replicas) evicts one non-master victim per insert, from
// the shard the insert lands in, and stops holding it.
func TestShardedStoreReplicaEviction(t *testing.T) {
	s := newShardedStore(8, core.PolicyMaster, 8) // one slot per shard
	seen := 0
	for i := 0; i < 64; i++ {
		s.Insert(sid(i, 0), []byte("r"), false)
	}
	// Every shard is full of non-master copies now; further inserts must
	// evict from the right shard.
	for i := 64; i < 128; i++ {
		if ev := s.Insert(sid(i, 0), []byte("r"), false); ev != nil {
			if ev.Master {
				t.Fatalf("evicted %v flagged as master", ev.ID)
			}
			if s.shardOf(ev.ID) != s.shardOf(sid(i, 0)) {
				t.Fatalf("victim %v evicted from a different shard than the insert", ev.ID)
			}
			if s.Contains(ev.ID) {
				t.Fatalf("evicted copy %v still held", ev.ID)
			}
			seen++
			ev.Release()
		}
	}
	if seen == 0 {
		t.Fatal("no evictions observed")
	}
	if s.Len() != 8 || s.Masters() != 0 {
		t.Fatalf("len/masters = %d/%d after the churn, want 8/0", s.Len(), s.Masters())
	}
}

// TestShardOneMatchesLegacyOrder: with shard count 1 the store is the exact
// single-lock global LRU — eviction order across files is age order, which is
// what the replay-equivalence suite relies on (NewStore pins one shard).
func TestShardOneMatchesLegacyOrder(t *testing.T) {
	s := NewStore(3, core.PolicyBasic)
	if s.ShardCount() != 1 {
		t.Fatalf("NewStore shard count %d, want 1", s.ShardCount())
	}
	s.Insert(sid(1, 0), []byte("a"), true)
	s.Insert(sid(2, 0), []byte("b"), false)
	s.Insert(sid(3, 0), []byte("c"), false)
	// Touch 1 so 2 is the global LRU victim.
	if _, ok := s.Get(sid(1, 0)); !ok {
		t.Fatal("warm block missing")
	}
	ev := s.Insert(sid(4, 0), []byte("d"), false)
	if ev == nil || ev.ID != sid(2, 0) {
		t.Fatalf("eviction %+v, want global-LRU victim 2:0", ev)
	}
	ev.Release()
}

// TestGetRefPinsAcrossRemove is the refcount contract at its sharpest: a
// pinned reference keeps its bytes bit-identical through Remove and the
// buffer's slot being refilled by new content.
func TestGetRefPinsAcrossRemove(t *testing.T) {
	s := newShardedStore(8, core.PolicyMaster, 4)
	want := SyntheticBlock(7, 3, 4096)
	s.Insert(sid(7, 3), append([]byte(nil), want...), true)
	pb, ok := s.GetRef(sid(7, 3))
	if !ok {
		t.Fatal("GetRef missed")
	}
	s.Remove(sid(7, 3))
	s.Insert(sid(7, 3), SyntheticBlock(9, 9, 4096), true)
	if !bytes.Equal(pb.data, want) {
		t.Fatal("pinned bytes changed after Remove + reinsert")
	}
	pb.release()
}

// TestGetBlockMutationCanary: the public GetBlock hands back the caller's own
// copy — mutating it must never reach the cache, and a reader pinned on the
// same block must never observe the mutation. This is the regression test
// for the old dst==nil aliasing hazard, where GetBlock returned a slice
// aliasing the store's buffer.
func TestGetBlockMutationCanary(t *testing.T) {
	geom := block.Geometry{Size: 512, ExtentBlocks: 8}
	sizes := map[block.FileID]int64{0: 4 * 512}
	nodes, _ := startCluster(t, 1, 16, sizes, func(i int, cfg *Config) {
		cfg.Geometry = geom
	})
	n := nodes[0]
	id := block.ID{File: 0, Idx: 0}
	want, err := n.GetBlock(id)
	if err != nil {
		t.Fatal(err)
	}
	got, err := n.GetBlock(id)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		got[i] ^= 0xFF // scribble over the returned slice
	}
	again, err := n.GetBlock(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Fatal("mutating GetBlock's return value corrupted the cache")
	}
}

// TestPinnedReadRaceCanary drives concurrent pinned reads against an
// eviction storm on the same tiny store: with the refcount contract intact
// the race detector sees no unsynchronized recycle and every pinned buffer
// stays bit-stable while held. (Run under -race; without the pin this is the
// use-after-recycle the zero-copy refactor exists to prevent.)
func TestPinnedReadRaceCanary(t *testing.T) {
	s := newShardedStore(4, core.PolicyBasic, 4) // one slot per shard: constant churn
	const blocks = 32
	mk := func(i int) []byte { return SyntheticBlock(block.FileID(i), 0, 2048) }
	var writer, readers sync.WaitGroup
	stop := make(chan struct{})
	// Writer: permanent insert/evict churn across every shard.
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if ev := s.Insert(sid(i%blocks, 0), mk(i%blocks), i%2 == 0); ev != nil {
				ev.Release()
			}
		}
	}()
	// Readers: pin whatever is cached, verify it stays identical while held.
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(seed int) {
			defer readers.Done()
			for i := 0; i < 3000; i++ {
				id := sid((seed+i)%blocks, 0)
				pb, ok := s.GetRef(id)
				if !ok {
					continue
				}
				snapshot := append([]byte(nil), pb.data...)
				runtime.Gosched() // let the churn try to recycle under us
				if !bytes.Equal(snapshot, pb.data) {
					t.Errorf("pinned payload of %v changed while held", id)
					pb.release()
					return
				}
				if !bytes.Equal(pb.data, mk((seed+i)%blocks)) {
					t.Errorf("pinned payload of %v has wrong content", id)
					pb.release()
					return
				}
				pb.release()
			}
		}(r * 7)
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}
