package middleware

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"repro/internal/block"
)

// The membership view is the cluster's answer to "who is here and who owns
// what". It is an immutable snapshot — every mutation builds a new view with
// a higher epoch and installs it atomically — so the read path can consult
// it without locks (satellite: Node.home is a single atomic pointer load).
//
// A member is one slot in a dense array indexed by node ID. Slots are never
// compacted: a dead member keeps its ID (its slot turns into a hole), and a
// joining member takes the next free ID. That keeps the peer table
// (peer.go), which holds each member's conn, breaker and invalidation and
// heartbeat state, index-stable across membership changes.

// memberState is a member slot's lifecycle state. There are exactly three:
// "suspect" is deliberately not a view state — suspicion is a local,
// per-observer judgement (see heartbeats in member.go) and only its
// promotion to dead is cluster-wide.
type memberState uint8

const (
	stateAlive    memberState = iota // in the ring, serving
	stateDraining                    // out of the ring, still serving (handing blocks off)
	stateDead                        // out of the ring, unreachable
)

func (s memberState) String() string {
	switch s {
	case stateAlive:
		return "alive"
	case stateDraining:
		return "draining"
	case stateDead:
		return "dead"
	}
	return fmt.Sprintf("memberState(%d)", uint8(s))
}

// memberInfo is one member slot. An empty Addr marks a slot that was never
// filled (possible after decoding a view from a newer cluster).
type memberInfo struct {
	Addr  string
	State memberState
}

// ringPoint is one virtual node on the hash ring.
type ringPoint struct {
	hash uint64
	node int32
}

// vnodesPerMember is the virtual-node count per alive member. 64 points per
// member keeps the max/mean partition-size ratio near 1.25 at the cluster
// sizes the paper simulates, for a ring of a few hundred points.
const vnodesPerMember = 64

// memberView is an immutable membership snapshot: the epoch, the member
// slots, and the consistent-hash ring derived from the alive slots.
type memberView struct {
	epoch   uint64
	members []memberInfo
	ring    []ringPoint
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed 64-bit hash
// used both to place virtual nodes and to hash keys onto the ring.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// newMemberView builds the view (and its ring) for the given member slots.
// The members slice is owned by the view afterwards; callers must pass a
// fresh copy.
func newMemberView(epoch uint64, members []memberInfo) *memberView {
	v := &memberView{epoch: epoch, members: members}
	for i, m := range members {
		if m.State != stateAlive || m.Addr == "" {
			continue
		}
		base := mix64(uint64(i+1) * 0x9e3779b97f4a7c15)
		for k := 0; k < vnodesPerMember; k++ {
			v.ring = append(v.ring, ringPoint{hash: mix64(base + uint64(k)), node: int32(i)})
		}
	}
	sort.Slice(v.ring, func(a, b int) bool {
		if v.ring[a].hash != v.ring[b].hash {
			return v.ring[a].hash < v.ring[b].hash
		}
		return v.ring[a].node < v.ring[b].node
	})
	return v
}

// aliveView is the view of a bootstrap address list: every slot alive.
func aliveView(epoch uint64, addrs []string) *memberView {
	members := make([]memberInfo, len(addrs))
	for i, a := range addrs {
		members[i] = memberInfo{Addr: a, State: stateAlive}
	}
	return newMemberView(epoch, members)
}

// home maps a file to its home node under this view — the node that stores
// the file and manages its blocks' directory entries: the ring successor of
// the key's hash. ok is false when the view has no placeable member.
func (v *memberView) home(f block.FileID) (int, bool) {
	if len(v.ring) == 0 {
		return 0, false
	}
	return int(v.ring[v.search(mix64(uint64(f)))].node), true
}

// homeExcluding maps a file to the first ring node that is not skip — the
// successor a reader falls back to when the home looks down. In a
// single-member ring it returns the plain home.
func (v *memberView) homeExcluding(f block.FileID, skip int) (int, bool) {
	if len(v.ring) == 0 {
		return v.home(f)
	}
	i := v.search(mix64(uint64(f)))
	for probes := 0; probes < len(v.ring); probes++ {
		p := v.ring[(i+probes)%len(v.ring)]
		if int(p.node) != skip {
			return int(p.node), true
		}
	}
	return int(v.ring[i].node), true
}

// search returns the index of the first ring point with hash >= h, wrapping
// to 0 past the end.
func (v *memberView) search(h uint64) int {
	i := sort.Search(len(v.ring), func(i int) bool { return v.ring[i].hash >= h })
	if i == len(v.ring) {
		return 0
	}
	return i
}

// size is the member-slot count (dead slots and holes included) — the bound
// of every per-peer loop; the peer table has at least this many slots.
func (v *memberView) size() int { return len(v.members) }

// reachable reports whether slot i can be sent an RPC: filled and not dead.
// Draining members are reachable — they keep serving until handed off.
func (v *memberView) reachable(i int) bool {
	return i >= 0 && i < len(v.members) && v.members[i].State != stateDead && v.members[i].Addr != ""
}

// aliveCount counts the slots currently in the ring.
func (v *memberView) aliveCount() int {
	c := 0
	for _, m := range v.members {
		if m.State == stateAlive && m.Addr != "" {
			c++
		}
	}
	return c
}

// withMember returns a copy of the view's member slots with slot id set to
// the given info, growing the slice if id is a new slot.
func (v *memberView) withMember(id int, info memberInfo) []memberInfo {
	n := len(v.members)
	if id >= n {
		n = id + 1
	}
	members := make([]memberInfo, n)
	copy(members, v.members)
	members[id] = info
	return members
}

// RingHome is the exported consistent-hash mapping for an n-node cluster of
// all-alive members — what a cluster built by SetAddrs computes.
// Harnesses use it to reason about placement (e.g. excluding a crashed
// node's homed files from a trace) without a live view in hand.
func RingHome(f block.FileID, n int) int {
	if n <= 0 {
		return 0
	}
	vi, ok := ringHomeCache.Load(n)
	if !ok {
		members := make([]memberInfo, n)
		for i := range members {
			members[i] = memberInfo{Addr: "x", State: stateAlive}
		}
		vi, _ = ringHomeCache.LoadOrStore(n, newMemberView(1, members))
	}
	h, _ := vi.(*memberView).home(f)
	return h
}

// ringHomeCache memoizes the synthetic all-alive views behind RingHome,
// keyed by cluster size.
var ringHomeCache sync.Map

// --- wire codec ---

// Views travel in MsgViewReply/MsgViewUpdate payloads:
//
//	epoch  u64
//	count  u32
//	count × { state u8, addrLen u16, addr bytes }
const maxViewMembers = 1 << 16

// appendView serializes the view onto buf.
func appendView(buf []byte, v *memberView) []byte {
	buf = binary.BigEndian.AppendUint64(buf, v.epoch)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(v.members)))
	for _, m := range v.members {
		buf = append(buf, byte(m.State))
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Addr)))
		buf = append(buf, m.Addr...)
	}
	return buf
}

// decodeView parses a serialized view, rebuilding the ring.
func decodeView(p []byte) (*memberView, error) {
	if len(p) < 12 {
		return nil, fmt.Errorf("middleware: view payload too short (%d bytes)", len(p))
	}
	epoch := binary.BigEndian.Uint64(p)
	count := binary.BigEndian.Uint32(p[8:])
	if count > maxViewMembers {
		return nil, fmt.Errorf("middleware: view member count %d exceeds limit", count)
	}
	p = p[12:]
	members := make([]memberInfo, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(p) < 3 {
			return nil, fmt.Errorf("middleware: view payload truncated at member %d", i)
		}
		st := memberState(p[0])
		if st > stateDead {
			return nil, fmt.Errorf("middleware: view member %d has unknown state %d", i, p[0])
		}
		alen := int(binary.BigEndian.Uint16(p[1:]))
		p = p[3:]
		if len(p) < alen {
			return nil, fmt.Errorf("middleware: view payload truncated in member %d address", i)
		}
		members = append(members, memberInfo{Addr: string(p[:alen]), State: st})
		p = p[alen:]
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("middleware: %d trailing bytes after view payload", len(p))
	}
	return newMemberView(epoch, members), nil
}
