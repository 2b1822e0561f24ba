package middleware

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/block"
)

func allAlive(n int) []memberInfo {
	members := make([]memberInfo, n)
	for i := range members {
		members[i] = memberInfo{Addr: "x", State: stateAlive}
	}
	return members
}

// TestRingDeterministicMapping pins that the mapping is a pure function of
// (file, membership): two independently built views agree on every key,
// and RingHome matches the view computation.
func TestRingDeterministicMapping(t *testing.T) {
	a := newMemberView(1, allAlive(5))
	b := newMemberView(7, allAlive(5))
	for f := block.FileID(0); f < 10000; f++ {
		ha, ok := a.home(f)
		if !ok {
			t.Fatalf("no home for %d", f)
		}
		hb, _ := b.home(f)
		if ha != hb {
			t.Fatalf("file %d: views disagree (%d vs %d)", f, ha, hb)
		}
		if rh := RingHome(f, 5); rh != ha {
			t.Fatalf("file %d: RingHome %d != view home %d", f, rh, ha)
		}
	}
}

// TestRingBalance bounds the placement skew: with 64 vnodes per member no
// member's share of 100k keys strays past 2x the fair share.
func TestRingBalance(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		v := newMemberView(1, allAlive(n))
		counts := make([]int, n)
		const keys = 100000
		for f := block.FileID(0); f < keys; f++ {
			h, _ := v.home(f)
			counts[h]++
		}
		fair := keys / n
		for i, c := range counts {
			if c > 2*fair || c < fair/2 {
				t.Fatalf("n=%d: node %d holds %d of %d keys (fair share %d)", n, i, c, keys, fair)
			}
		}
	}
}

// TestRingMovedFractionOnGrow pins consistent hashing's defining property:
// growing n -> n+1 moves roughly 1/(n+1) of the keys, and every moved key
// moves TO the joiner (no key moves between surviving members).
func TestRingMovedFractionOnGrow(t *testing.T) {
	for _, n := range []int{3, 7} {
		old := newMemberView(1, allAlive(n))
		grown := newMemberView(2, allAlive(n+1))
		const keys = 50000
		moved := 0
		for f := block.FileID(0); f < keys; f++ {
			ho, _ := old.home(f)
			hg, _ := grown.home(f)
			if ho == hg {
				continue
			}
			if hg != n {
				t.Fatalf("n=%d file %d: moved %d -> %d, not to the joiner %d", n, f, ho, hg, n)
			}
			moved++
		}
		frac := float64(moved) / keys
		want := 1.0 / float64(n+1)
		if frac < want/2 || frac > want*2 {
			t.Fatalf("n=%d: moved fraction %.3f, want ~%.3f", n, frac, want)
		}
	}
}

// TestHomeExcludingIsPreJoinHome pins the property the rebalance diff
// relies on: for a joiner with no prior view, the ring minus the joiner IS
// the pre-join ring, so homeExcluding(f, joiner) equals the old home for
// every key.
func TestHomeExcludingIsPreJoinHome(t *testing.T) {
	const n = 6
	old := newMemberView(1, allAlive(n))
	grown := newMemberView(2, allAlive(n+1))
	for f := block.FileID(0); f < 20000; f++ {
		ho, _ := old.home(f)
		hx, _ := grown.homeExcluding(f, n)
		if ho != hx {
			t.Fatalf("file %d: homeExcluding(joiner)=%d, pre-join home=%d", f, hx, ho)
		}
	}
}

// TestHomeExcludingSkipsDownNode pins the read path's crash fallback: the
// successor differs from the excluded node and agrees with the ring that
// no longer contains it (what the view becomes once the death is
// promoted).
func TestHomeExcludingSkipsDownNode(t *testing.T) {
	const n = 5
	full := newMemberView(1, allAlive(n))
	members := allAlive(n)
	members[2].State = stateDead
	without := newMemberView(2, members)
	for f := block.FileID(0); f < 20000; f++ {
		h, _ := full.home(f)
		if h != 2 {
			continue
		}
		succ, ok := full.homeExcluding(f, 2)
		if !ok || succ == 2 {
			t.Fatalf("file %d: no successor past node 2", f)
		}
		promoted, _ := without.home(f)
		if succ != promoted {
			t.Fatalf("file %d: successor %d != post-promotion home %d", f, succ, promoted)
		}
	}
}

// TestViewCodecRoundTrip pins the wire codec.
func TestViewCodecRoundTrip(t *testing.T) {
	members := []memberInfo{
		{Addr: "127.0.0.1:7001", State: stateAlive},
		{Addr: "127.0.0.1:7002", State: stateDraining},
		{Addr: "127.0.0.1:7003", State: stateDead},
		{Addr: "", State: stateDead}, // hole
		{Addr: "127.0.0.1:7005", State: stateAlive},
	}
	v := newMemberView(42, members)
	got, err := decodeView(appendView(nil, v))
	if err != nil {
		t.Fatal(err)
	}
	if got.epoch != 42 || got.size() != len(members) {
		t.Fatalf("round trip: epoch=%d size=%d", got.epoch, got.size())
	}
	for i, m := range members {
		if got.members[i] != m {
			t.Fatalf("member %d: %+v != %+v", i, got.members[i], m)
		}
	}
	for f := block.FileID(0); f < 5000; f++ {
		hv, okv := v.home(f)
		hg, okg := got.home(f)
		if hv != hg || okv != okg {
			t.Fatalf("file %d: decoded view maps to %d, original %d", f, hg, hv)
		}
	}
}

// TestViewCodecRejectsGarbage pins the decoder's bounds checks.
func TestViewCodecRejectsGarbage(t *testing.T) {
	v := newMemberView(1, allAlive(3))
	good := appendView(nil, v)
	cases := map[string][]byte{
		"short":    good[:5],
		"trailing": append(append([]byte(nil), good...), 0xff),
		"badState": func() []byte {
			b := append([]byte(nil), good...)
			b[12] = 99 // first member's state byte
			return b
		}(),
		"truncatedAddr": good[:len(good)-1],
	}
	for name, p := range cases {
		if _, err := decodeView(p); err == nil {
			t.Errorf("%s: decodeView accepted corrupt payload", name)
		}
	}
}

// TestConcurrentLookupsDuringEpochSwap soaks the lock-free read path under
// -race: readers hammer home()/homeExcluding()/manager() while a writer
// swaps in views of growing and shrinking size.
func TestConcurrentLookupsDuringEpochSwap(t *testing.T) {
	var p atomic.Pointer[memberView]
	p.Store(newMemberView(1, allAlive(2)))
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for f := block.FileID(seed); !stop.Load(); f++ {
				v := p.Load()
				h, ok := v.home(f)
				if !ok {
					t.Error("view with no home")
					return
				}
				if h >= v.size() {
					t.Errorf("home %d out of range %d", h, v.size())
					return
				}
				if s, ok := v.homeExcluding(f, h); ok && s == h && v.aliveCount() > 1 {
					t.Errorf("successor %d equals excluded home", s)
					return
				}
			}
		}(r * 1000)
	}
	for e := uint64(2); e < 400; e++ {
		n := 2 + int(e%7)
		members := allAlive(n)
		if e%3 == 0 {
			members[int(e)%n].State = stateDraining
		}
		p.Store(newMemberView(e, members))
	}
	stop.Store(true)
	wg.Wait()
}
