package core

import (
	"repro/internal/block"
	"repro/internal/sim"
)

// insertBlock installs a newly received block at node n, evicting per the
// configured replacement policy if the cache is full. Master insertions
// update the global directory.
func (s *Server) insertBlock(n *ccNode, b block.ID, master bool) {
	c := n.cache
	if master {
		// Two nodes can race cold reads of the same block through the home
		// disk; the first to finish claims mastership, the second keeps a
		// plain copy. (The directory serializes the claim instantaneously,
		// per the paper's optimistic assumptions.)
		if h, ok := s.dir.Holder(b); ok && h != n.idx {
			master = false
		}
	}
	if c.Contains(b) {
		// A concurrent path already installed it (e.g. a forwarded master
		// landed while our fetch was in flight). At most upgrade its role.
		if master && c.Promote(b) {
			s.dir.Set(b, n.idx)
		}
		return
	}
	if c.Full() {
		s.evictOne(n)
	}
	c.Insert(b, master, s.eng.Now())
	if master {
		s.dir.Set(b, n.idx)
	}
}

// evictOne frees one block slot at node n according to the policy (the
// victim rule is cache.BlockCache.EvictVictim, shared with the live store):
//
//   - All policies: the victim is the locally oldest block; a non-master
//     victim is simply dropped.
//   - PolicyMaster only: if the oldest block is a master and the node still
//     holds any non-master copy, the oldest non-master is evicted instead
//     (§5's modification — never sacrifice a master while replicas remain).
//   - A master victim gets a second chance: if some peer holds an older
//     block, the master is forwarded there; if it is the globally oldest
//     block, it is dropped and the directory forgets it.
func (s *Server) evictOne(n *ccNode) {
	if s.cfg.Policy == PolicyNChance {
		s.evictNChance(n)
		return
	}
	victim, vMaster, vAge, ok := n.cache.EvictVictim(s.cfg.Policy == PolicyMaster)
	if !ok || !vMaster {
		return
	}
	if s.cfg.DisableForwarding {
		s.dir.Drop(victim)
		return
	}
	peer, pAge, found := s.oldestPeer(n.idx)
	if !found || pAge >= vAge {
		// The victim is the oldest block in the system: drop it.
		s.dir.Drop(victim)
		return
	}
	s.forwardMaster(n.idx, peer, victim, vAge)
}

// evictNChance applies Dahlin-style N-chance replacement: plain local LRU,
// except that an evicted master (the cluster's last copy) is recirculated
// to a random peer while its chance budget lasts. Unlike the paper's §3
// algorithm, the receiver makes room through its normal replacement path,
// so bounded cascades are possible — faithfully reproducing the client-side
// algorithm the paper argues needs modification for servers.
func (s *Server) evictNChance(n *ccNode) {
	victim, vMaster, _, _ := n.cache.EvictOldest()
	if !vMaster {
		return
	}
	if s.cfg.DisableForwarding || len(s.nodes) < 2 {
		delete(s.recirc, victim)
		s.dir.Drop(victim)
		return
	}
	count, started := s.recirc[victim]
	if !started {
		count = int8(s.cfg.NChance)
	}
	if count <= 0 {
		delete(s.recirc, victim)
		s.dir.Drop(victim)
		return
	}
	s.recirc[victim] = count - 1
	// Random peer, as in the original algorithm (no global age knowledge).
	peer := s.eng.Rand().Intn(len(s.nodes) - 1)
	if peer >= n.idx {
		peer++
	}
	s.stats.Forwards++
	s.dir.Set(victim, peer)
	src, dst := s.hwc.Nodes[n.idx], s.hwc.Nodes[peer]
	s.hwc.Net.Send(src, dst, int64(s.cfg.Geometry.Size), func() {
		dst.CPU.Do(s.p.ProcessEvictedMaster, func() {
			// Keep the claim only if no newer master appeared in flight.
			if holder, ok := s.dir.Holder(victim); ok && holder == peer {
				s.insertBlock(s.nodes[peer], victim, true)
			}
		})
	})
}

// oldestPeer finds the peer (≠ exclude) holding the system's oldest block.
// A peer with free space is always a willing recipient and is treated as
// infinitely old. §3: each node always knows the age of the oldest blocks
// of its peers (one of the paper's optimistic assumptions).
func (s *Server) oldestPeer(exclude int) (node int, age sim.Time, found bool) {
	node = -1
	for i, peer := range s.nodes {
		if i == exclude {
			continue
		}
		if !peer.cache.Full() {
			return i, -1 << 62, true
		}
		if a, ok := peer.cache.OldestAge(); ok && (!found || a < age) {
			node, age, found = i, a, true
		}
	}
	return node, age, found
}

// forwardMaster ships an evicted master to peer. The directory optimistically
// points at the destination immediately (the paper assumes an instantaneous,
// free directory); requests racing the forwarded block fall back to a home
// disk read, exactly the §3 caveat.
func (s *Server) forwardMaster(from, peer int, b block.ID, age sim.Time) {
	s.stats.Forwards++
	s.dir.Set(b, peer)
	src, dst := s.hwc.Nodes[from], s.hwc.Nodes[peer]
	s.hwc.Net.Send(src, dst, int64(s.cfg.Geometry.Size), func() {
		dst.CPU.Do(s.p.ProcessEvictedMaster, func() {
			s.receiveForwarded(peer, b, age)
		})
	})
}

// receiveForwarded applies the two §3 properties at the destination:
// (1) forwarded blocks never cause cascaded evictions — the receiver drops
// its own oldest block outright to make room; (2) if everything at the
// destination is younger than the forwarded block, the forwarded block is
// dropped instead.
func (s *Server) receiveForwarded(peer int, b block.ID, age sim.Time) {
	n := s.nodes[peer]
	c := n.cache

	// If the master moved again while this copy was in flight (another node
	// claimed mastership via a home read), do not usurp it.
	holder, ok := s.dir.Holder(b)
	stillOurs := ok && holder == peer

	if c.Contains(b) {
		// The peer already holds a (non-master) copy; promote it if the
		// claim stands.
		if stillOurs {
			c.Promote(b)
		}
		return
	}
	if c.Full() {
		if oldest, hasOldest := c.OldestAge(); hasOldest && oldest >= age {
			// Everything here is younger: drop the forwarded block.
			s.stats.ForwardDrops++
			if stillOurs {
				s.dir.Drop(b)
			}
			return
		}
		// Make room by dropping the oldest — never forwarding again.
		vid, vMaster, _, _ := c.EvictOldest()
		if vMaster {
			s.dir.Drop(vid)
		}
	}
	c.Insert(b, stillOurs, age)
}
