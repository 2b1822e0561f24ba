package middleware

import (
	"bytes"
	"testing"

	"repro/internal/block"
	"repro/internal/core"
)

func sid(f, i int) block.ID { return block.ID{File: block.FileID(f), Idx: int32(i)} }

func TestStoreInsertGet(t *testing.T) {
	s := NewStore(2, core.PolicyMaster)
	if ev := s.Insert(sid(1, 0), []byte("a"), true); ev != nil {
		t.Fatalf("eviction on non-full insert: %+v", ev)
	}
	data, ok := s.Get(sid(1, 0))
	if !ok || !bytes.Equal(data, []byte("a")) {
		t.Fatal("Get mismatch")
	}
	if !s.IsMaster(sid(1, 0)) || s.Masters() != 1 || s.Len() != 1 {
		t.Fatal("master accounting wrong")
	}
	if _, ok := s.Get(sid(9, 9)); ok {
		t.Fatal("phantom hit")
	}
}

func TestStoreEvictionReturnsMasterData(t *testing.T) {
	s := NewStore(2, core.PolicyBasic)
	s.Insert(sid(1, 0), []byte("old-master"), true)
	s.Insert(sid(2, 0), []byte("b"), false)
	ev := s.Insert(sid(3, 0), []byte("c"), false)
	if ev == nil || !ev.Master || ev.ID != sid(1, 0) {
		t.Fatalf("eviction = %+v, want old master", ev)
	}
	if !bytes.Equal(ev.Data, []byte("old-master")) {
		t.Fatal("master eviction lost its data")
	}
}

func TestStoreMasterPolicyPrefersNonMaster(t *testing.T) {
	s := NewStore(2, core.PolicyMaster)
	s.Insert(sid(1, 0), []byte("m"), true)  // oldest, master
	s.Insert(sid(2, 0), []byte("r"), false) // younger replica
	ev := s.Insert(sid(3, 0), []byte("c"), false)
	if ev == nil || ev.Master || ev.ID != sid(2, 0) {
		t.Fatalf("eviction = %+v, want the non-master", ev)
	}
	if !s.IsMaster(sid(1, 0)) {
		t.Fatal("master was lost")
	}
}

func TestStoreBasicPolicyEvictsOldest(t *testing.T) {
	s := NewStore(2, core.PolicyBasic)
	s.Insert(sid(1, 0), []byte("m"), true)
	s.Insert(sid(2, 0), []byte("r"), false)
	ev := s.Insert(sid(3, 0), []byte("c"), false)
	if ev == nil || ev.ID != sid(1, 0) || !ev.Master {
		t.Fatalf("eviction = %+v, want oldest (the master)", ev)
	}
}

func TestAcceptForwardRules(t *testing.T) {
	s := NewStore(2, core.PolicyMaster)
	s.Insert(sid(1, 0), []byte("x"), false)
	s.Insert(sid(2, 0), []byte("y"), false)

	// The destination's oldest block is older than the forwarded age:
	// accepted, displacing that oldest block (which is exactly when the
	// forwarder chooses this destination).
	young := s.clock + 1000
	acc, displaced := s.AcceptForward(sid(3, 0), []byte("f"), young)
	if !acc || displaced == nil || displaced.ID != sid(1, 0) {
		t.Fatalf("accept=%v displaced=%+v", acc, displaced)
	}
	if !s.IsMaster(sid(3, 0)) {
		t.Fatal("forwarded block not master")
	}

	// Everything at the destination is younger than the forwarded block:
	// dropped (§3 property 2).
	oldest, _ := s.OldestAge()
	acc, displaced = s.AcceptForward(sid(4, 0), []byte("g"), oldest-10)
	if acc || displaced != nil {
		t.Fatalf("forward should be rejected: accept=%v displaced=%+v", acc, displaced)
	}
	if s.Contains(sid(4, 0)) {
		t.Fatal("rejected forward was cached")
	}
}

func TestAcceptForwardPromotesExistingCopy(t *testing.T) {
	s := NewStore(2, core.PolicyMaster)
	s.Insert(sid(1, 0), []byte("x"), false)
	acc, displaced := s.AcceptForward(sid(1, 0), []byte("x2"), 1)
	if !acc || displaced != nil {
		t.Fatalf("accept=%v displaced=%+v", acc, displaced)
	}
	if !s.IsMaster(sid(1, 0)) {
		t.Fatal("existing copy not promoted")
	}
	data, _ := s.Get(sid(1, 0))
	if !bytes.Equal(data, []byte("x2")) {
		t.Fatal("payload not refreshed")
	}
}

func TestAcceptForwardIntoFreeSpace(t *testing.T) {
	s := NewStore(2, core.PolicyMaster)
	acc, displaced := s.AcceptForward(sid(1, 0), []byte("x"), 5)
	if !acc || displaced != nil {
		t.Fatalf("forward into empty store: accept=%v displaced=%+v", acc, displaced)
	}
}

func TestStoreRemove(t *testing.T) {
	s := NewStore(2, core.PolicyMaster)
	s.Insert(sid(1, 0), []byte("x"), true)
	present, master := s.Remove(sid(1, 0))
	if !present || !master || s.Len() != 0 {
		t.Fatal("Remove wrong")
	}
	if present, _ := s.Remove(sid(1, 0)); present {
		t.Fatal("double remove")
	}
}

func TestStoreReinsertRefreshesPayload(t *testing.T) {
	s := NewStore(2, core.PolicyMaster)
	s.Insert(sid(1, 0), []byte("v1"), false)
	if ev := s.Insert(sid(1, 0), []byte("v2"), true); ev != nil {
		t.Fatal("re-insert evicted")
	}
	data, _ := s.Get(sid(1, 0))
	if !bytes.Equal(data, []byte("v2")) || !s.IsMaster(sid(1, 0)) {
		t.Fatal("re-insert did not refresh")
	}
}

// TestShardedStoreCountersExact: the counters (Len, Masters and the
// lock-free OldestAge) stay exact across master inserts, non-master
// inserts, and removals.
func TestShardedStoreCountersExact(t *testing.T) {
	s := NewStore(64, core.PolicyMaster)
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

// TestShardedStoreReplicaEviction: a full store of non-master copies (the
// paper's replicas) evicts one non-master victim per insert, the oldest
// one, and stops holding it.
func TestShardedStoreReplicaEviction(t *testing.T) {
	s := NewStore(8, core.PolicyMaster)
	seen := 0
	for i := 0; i < 64; i++ {
		if ev := s.Insert(sid(i, 0), []byte("r"), false); ev != nil {
			ev.Release()
		}
	}
	// The store is full of non-master copies now; every further insert
	// evicts the oldest of them.
	for i := 64; i < 128; i++ {
		if ev := s.Insert(sid(i, 0), []byte("r"), false); ev != nil {
			if ev.Master {
				t.Fatalf("evicted %v flagged as master", ev.ID)
			}
			if ev.ID != sid(i-8, 0) {
				t.Fatalf("insert of %v evicted %v, want the oldest copy %v", sid(i, 0), ev.ID, sid(i-8, 0))
			}
			if s.Contains(ev.ID) {
				t.Fatalf("evicted copy %v still held", ev.ID)
			}
			seen++
			ev.Release()
		}
	}
	if seen != 64 {
		t.Fatalf("%d evictions over 64 inserts into a full store", seen)
	}
	if s.Len() != 8 || s.Masters() != 0 {
		t.Fatalf("len/masters = %d/%d after the churn, want 8/0", s.Len(), s.Masters())
	}
}

// TestStoreEvictsGlobalLRUOrder: eviction order across files is age order
// over the whole store — a touch makes a block young again, whatever file
// it belongs to.
func TestStoreEvictsGlobalLRUOrder(t *testing.T) {
	s := NewStore(3, core.PolicyBasic)
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

// TestStoreRulesHoldNodeWide checks the paper's two replacement rules on
// the store a node starts with, against everything the node holds:
//   - §5: no eviction drops a master while the node still holds a
//     non-master copy;
//   - §3: a forwarded master is accepted when the node holds a block older
//     than it, and that block is the one discarded to make room.
func TestStoreRulesHoldNodeWide(t *testing.T) {
	const capacity = 64
	store := func(t *testing.T) *Store {
		nodes, _ := startCluster(t, 1, capacity, map[block.FileID]int64{}, nil)
		return nodes[0].store
	}
	t.Run("master_rule", func(t *testing.T) {
		s := store(t)
		evictions := 0
		insert := func(id block.ID, master bool) {
			replicas := s.Len() > s.Masters()
			ev := s.Insert(id, []byte("x"), master)
			if ev == nil {
				return
			}
			evictions++
			if ev.Master && replicas {
				t.Fatalf("inserting %v evicted master %v while the node held a non-master copy (%d blocks, %d masters)",
					id, ev.ID, s.Len(), s.Masters())
			}
			ev.Release()
		}
		// Fill: every eighth block a non-master copy.
		for i := 0; s.Len() < capacity; i++ {
			insert(sid(1, i), i%8 != 7)
		}
		if s.Masters() == capacity {
			t.Fatal("filled store holds no non-master copy")
		}
		// Churn with master inserts: the non-masters go first, then the
		// oldest masters.
		for i := 0; i < 4*capacity; i++ {
			insert(sid(2, i), true)
		}
		if evictions < 4*capacity || s.Len() != capacity || s.Masters() != capacity {
			t.Fatalf("%d evictions, %d blocks, %d masters after the churn", evictions, s.Len(), s.Masters())
		}
	})
	t.Run("forward_arrival", func(t *testing.T) {
		s := store(t)
		// Fill with forwards spaced 1000 apart in age.
		const base, gap = 1 << 40, 1000
		for i := 0; s.Len() < capacity; i++ {
			if ok, _ := s.AcceptForward(sid(1, i), []byte("x"), base+gap*int64(i)); !ok {
				t.Fatalf("forward %d into a node with free space rejected", i)
			}
		}
		// Each forward is younger than the node's oldest block and older
		// than every other one, so each must be accepted and displace
		// exactly that oldest block (the previous forward after the first).
		for k := 0; k < 8; k++ {
			oldest, _ := s.OldestAge()
			ok, displaced := s.AcceptForward(sid(2, k), []byte("f"), oldest+1)
			if !ok {
				t.Fatalf("forward %d (age %d) rejected; the node holds a block of age %d", k, oldest+1, oldest)
			}
			if displaced == nil || displaced.Age != oldest {
				t.Fatalf("forward %d displaced %+v, want the oldest block (age %d)", k, displaced, oldest)
			}
		}
		if s.Len() != capacity {
			t.Fatalf("store holds %d blocks, want %d", s.Len(), capacity)
		}
	})
}
