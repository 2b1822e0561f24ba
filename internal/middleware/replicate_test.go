package middleware

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/core"
)

// TestPeerServeFlagsMasterOnly pins the wire contract adaptive replication
// relies on: a peer serve carries FlagMaster iff the block is held as a
// master copy.
func TestPeerServeFlagsMasterOnly(t *testing.T) {
	sizes := map[block.FileID]int64{0: 2048}
	nodes, _ := startCluster(t, 2, 16, core.PolicyMaster, sizes)
	n := nodes[0]
	id := block.ID{File: 0, Idx: 0}
	data := SyntheticBlock(0, 0, 1024)

	n.store.Insert(id, data, true)
	req := getFrame()
	req.Type, req.File, req.Idx, req.Sender = MsgGetBlock, 0, 0, 1
	r := n.handleGetBlock(req)
	if r.Type != MsgBlockData || r.Flags&FlagMaster == 0 {
		t.Fatalf("master serve: type %d flags %#x, want MsgBlockData with FlagMaster", r.Type, r.Flags)
	}
	releaseFrame(r)

	n.store.Remove(id)
	n.store.InsertReplica(id, data)
	r = n.handleGetBlock(req)
	if r.Type != MsgBlockData || r.Flags&FlagMaster != 0 {
		t.Fatalf("replica serve: type %d flags %#x, want MsgBlockData without FlagMaster", r.Type, r.Flags)
	}
	releaseFrame(r)
	releaseFrame(req)
}

// TestStoreAdmissionFilter pins the doorkeeper behaviour at the store: with
// the filter installed, a full cache turns away one-hit wonders instead of
// evicting established blocks, while master inserts always land.
func TestStoreAdmissionFilter(t *testing.T) {
	s := NewStore(4, core.PolicyMaster)
	s.SetAdmission(core.NewAdmission(4))
	data := make([]byte, 8)
	warm := make([]block.ID, 4)
	for i := range warm {
		warm[i] = block.ID{File: 1, Idx: int32(i)}
		s.Insert(warm[i], data, false)
	}
	for round := 0; round < 10; round++ {
		for _, id := range warm {
			s.Get(id)
		}
	}
	// A string of one-hit wonders: none may displace the warm set.
	for i := 0; i < 8; i++ {
		s.Insert(block.ID{File: 2, Idx: int32(i)}, data, false)
	}
	for _, id := range warm {
		if !s.Contains(id) {
			t.Fatalf("warm block %v displaced by a one-hit wonder", id)
		}
	}
	if s.AdmissionRejects() == 0 {
		t.Fatal("no admission rejects recorded")
	}
	// Masters bypass the filter: the directory depends on the insert.
	if !func() bool {
		s.Insert(block.ID{File: 3, Idx: 0}, data, true)
		return s.Contains(block.ID{File: 3, Idx: 0})
	}() {
		t.Fatal("master insert rejected by the admission filter")
	}
}

// TestStoreReplicaLifecycle covers the replica flag: InsertReplica marks,
// serves count as replica hits, promotion to master and removal clear.
func TestStoreReplicaLifecycle(t *testing.T) {
	s := NewStore(8, core.PolicyMaster)
	id := block.ID{File: 0, Idx: 0}
	data := make([]byte, 8)
	s.InsertReplica(id, data)
	if !s.IsReplica(id) || s.Replicas() != 1 {
		t.Fatal("replica not flagged after InsertReplica")
	}
	if _, ok := s.Get(id); !ok {
		t.Fatal("replica not served")
	}
	if s.ReplicaHits() != 1 {
		t.Fatalf("replica hits = %d, want 1", s.ReplicaHits())
	}
	// A master insert of the same block promotes it out of replica state.
	s.Insert(id, data, true)
	if s.IsReplica(id) || !s.IsMaster(id) {
		t.Fatal("promotion did not clear the replica flag")
	}
	s.Get(id)
	if s.ReplicaHits() != 1 {
		t.Fatal("master serve counted as replica hit")
	}
	s.Remove(id)
	if s.Replicas() != 0 {
		t.Fatal("replica accounting leaked after Remove")
	}
}

// startReplicationCluster spins up a cluster with adaptive replication at a
// low threshold and a frozen epoch clock (no decay mid-test).
func startReplicationCluster(t *testing.T, k int, mut func(i int, cfg *Config)) ([]*Node, *Client, map[block.FileID]int64) {
	t.Helper()
	sizes := map[block.FileID]int64{0: 2048, 1: 2048}
	nodes, client := startClusterCfg(t, k, 64, sizes, func(i int, cfg *Config) {
		cfg.ReplicateThreshold = 3
		cfg.ReplicaFanout = 2
		cfg.HotnessEpoch = time.Hour // decay frozen: deterministic scores
		if mut != nil {
			mut(i, cfg)
		}
	})
	return nodes, client, sizes
}

// TestAdaptiveReplicationSpreads drives repeated peer fetches of one block
// until its master's serve score crosses the threshold, then verifies the
// copies spread (ReplicasPushed, StoreReplicas) and that rotated lookups
// are served from them (ReplicaHits) with correct bytes throughout.
func TestAdaptiveReplicationSpreads(t *testing.T) {
	nodes, _, _ := startReplicationCluster(t, 4, nil)
	// File 0 is homed at node 0; node 1's first read makes it the master.
	id := block.ID{File: 0, Idx: 0}
	want := SyntheticBlock(0, 0, 1024)
	if data, err := nodes[1].GetBlock(id); err != nil || !bytes.Equal(data, want) {
		t.Fatalf("seed read: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	replicated := func() bool {
		var pushed uint64
		for _, n := range nodes {
			pushed += n.Stats().ReplicasPushed
		}
		return pushed > 0
	}
	// Node 0 fetches and forgets the block, so every round is a fresh
	// directory lookup and a peer serve. It reads because it is the one node
	// that is neither the master nor a push target (node 1's ring successors
	// 2 and 3): forgetting the block there can never delete a replica that
	// was just pushed.
	refetch := func() {
		nodes[0].store.Remove(id)
		data, err := nodes[0].GetBlock(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, want) {
			t.Fatal("content mismatch")
		}
	}
	for !replicated() {
		if time.Now().After(deadline) {
			t.Fatal("no replicas pushed despite sustained peer serves")
		}
		refetch()
	}
	// Keep fetching until a rotated lookup lands on a replica holder.
	for {
		if time.Now().After(deadline) {
			t.Fatal("no replica hit despite pushed replicas")
		}
		var hits uint64
		for _, n := range nodes {
			hits += n.Stats().ReplicaHits
		}
		if hits > 0 {
			break
		}
		refetch()
	}
}

// TestWriteInvalidatesReplicas verifies the write protocol tears down the
// whole copy set — no node serves stale replica bytes after a write — and
// that the manager's repush tombstone then re-replicates the FRESH content
// from the new master (a written-to hot block must not wait for its serve
// rate to re-cross the threshold).
func TestWriteInvalidatesReplicas(t *testing.T) {
	nodes, _, _ := startReplicationCluster(t, 4, nil)
	id := block.ID{File: 0, Idx: 0}
	if _, err := nodes[1].GetBlock(id); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var pushed uint64
		for _, n := range nodes {
			pushed += n.Stats().ReplicasPushed
		}
		if pushed > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replication never triggered")
		}
		for _, r := range []int{2, 3} {
			nodes[r].store.Remove(id)
			if _, err := nodes[r].GetBlock(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Wait for the full fanout to land and register at the manager
	// (pushes are async; the write below must find a settled copy set).
	for {
		nodes[0].reps.mu.Lock()
		registered := len(nodes[0].reps.m[id])
		nodes[0].reps.mu.Unlock()
		if registered >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d replicas registered at the manager", registered)
		}
		time.Sleep(time.Millisecond)
	}
	// Node 2 writes. The invalidation must reach every copy — any block
	// still resident anywhere (including re-pushed replicas) must hold the
	// NEW bytes, and every node must read the new content.
	newData := bytes.Repeat([]byte{0xEE}, 1024)
	if err := nodes[2].WriteBlock(id, newData); err != nil {
		t.Fatal(err)
	}
	// The invalidation rides the async bus: wait for every peer to ack.
	if !nodes[2].FlushInval(5 * time.Second) {
		t.Fatal("invalidation bus did not drain")
	}
	for i, n := range nodes {
		if cached, ok := n.store.Get(id); ok && !bytes.Equal(cached, newData) {
			t.Fatalf("node %d holds stale cached bytes after write-invalidate", i)
		}
		data, err := n.GetBlock(id)
		if err != nil {
			t.Fatalf("node %d read after write: %v", i, err)
		}
		if !bytes.Equal(data, newData) {
			t.Fatalf("node %d read stale content after write-invalidate", i)
		}
	}
	// The torn-down set tombstoned the block as hot: the writer's mastership
	// claim triggers an immediate re-push of the fresh content.
	for {
		repushed := 0
		for i, n := range nodes {
			if !n.store.IsReplica(id) {
				continue
			}
			if cached, ok := n.store.Get(id); ok && !bytes.Equal(cached, newData) {
				t.Fatalf("node %d re-replicated stale bytes", i)
			}
			repushed++
		}
		if repushed > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("write repush never re-replicated the hot block")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReplicaSetsPick pins the rotation contract: empty set returns the
// master unchanged (the disabled-replication equivalence guarantee), the
// requester is never picked, and every live candidate is eventually drawn.
func TestReplicaSetsPick(t *testing.T) {
	r := newReplicaSets()
	id := block.ID{File: 0, Idx: 0}
	for draw := uint32(0); draw < 8; draw++ {
		if got := r.pick(id, 1, 2, draw); got != 1 {
			t.Fatalf("empty set: pick = %d, want master 1", got)
		}
	}
	r.add(id, 2)
	r.add(id, 3)
	seen := map[int32]bool{}
	for draw := uint32(0); draw < 16; draw++ {
		got := r.pick(id, 1, 2, draw)
		if got == 2 {
			t.Fatal("rotation picked the requester")
		}
		seen[got] = true
	}
	if !seen[1] || !seen[3] {
		t.Fatalf("rotation did not cover master and replica: %v", seen)
	}
	// The master as requester still resolves (to a replica).
	if got := r.pick(id, 1, 1, 0); got != 2 && got != 3 {
		t.Fatalf("master-as-requester pick = %d, want a replica", got)
	}
	if !r.drop(id, 2) || r.drop(id, 2) {
		t.Fatal("drop bookkeeping wrong")
	}
	r.clear(id)
	if r.len() != 0 {
		t.Fatal("clear left state behind")
	}
}
