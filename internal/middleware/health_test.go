package middleware

import (
	"errors"
	"testing"
	"time"

	"repro/internal/block"
)

// TestClientBreakerClosesOnErrorReply: a half-open probe that a node
// answers with an error (here a 404) proves the node alive and closes the
// client's breaker; a breaker left probing would steer every later request
// away from the node for good.
func TestClientBreakerClosesOnErrorReply(t *testing.T) {
	nodes, _ := startCluster(t, 2, 16, map[block.FileID]int64{0: 1024}, nil)
	c := dialNodes(t, nodes, ClientConfig{BreakerThreshold: 1, BreakerCooldown: 10 * time.Millisecond})
	br := &c.peers.get(1).br
	br.failure()
	time.Sleep(20 * time.Millisecond)
	if !br.allow() { // the half-open probe, as next() admits it
		t.Fatal("cooldown elapsed: the half-open probe should be admitted")
	}
	if _, err := c.ReadVia(1, 99); !errors.Is(err, ErrUnknownFile) {
		t.Fatalf("read of an unknown file: %v, want ErrUnknownFile", err)
	}
	time.Sleep(50 * time.Millisecond)
	if !br.allow() {
		t.Fatal("the probe's error reply left the breaker open")
	}
}

// TestNodeBreakerClosesOnErrorReply is the same for a node: a probe
// answered with MsgErr closes the breaker, or every later RPC to the peer
// fails with errPeerSuspect and the invalidation bus never delivers to it.
func TestNodeBreakerClosesOnErrorReply(t *testing.T) {
	nodes, _ := startCluster(t, 2, 16, map[block.FileID]int64{0: 1024}, func(i int, cfg *Config) {
		cfg.BreakerThreshold, cfg.BreakerCooldown = 1, 10*time.Millisecond
	})
	n := nodes[0]
	br := &n.peers.get(1).br
	br.failure()
	time.Sleep(20 * time.Millisecond)
	req := getFrame()
	req.Type, req.Aux = MsgGetRun, packRunAux(0, 0) // a zero-block run: an error reply
	resp, err := n.reliableRPC(1, req, 0)
	releaseFrame(req)
	if err == nil {
		releaseFrame(resp)
		t.Fatal("a zero-block run got a reply, want an error reply")
	}
	if isTransient(err) {
		t.Fatalf("a zero-block run failed in transport: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	if !br.allow() {
		t.Fatal("the probe's error reply left the breaker open")
	}
}

// TestBreakerReopenCounted is the regression test for the breaker
// accounting bug: failure() used to report the open transition only when
// the consecutive-failure count hit the threshold exactly, so a failed
// half-open probe — which re-opens an already-tripped circuit with the
// count past the threshold — was never counted. Every closed→open AND
// half-open→open transition must report true.
func TestBreakerReopenCounted(t *testing.T) {
	b := &breaker{threshold: 2, cooldown: 30 * time.Millisecond}

	// Trip the circuit: the threshold-th failure is the closed→open edge.
	if b.failure() {
		t.Fatal("failure below threshold must not report an open transition")
	}
	if !b.failure() {
		t.Fatal("threshold-th failure must report the closed→open transition")
	}

	// Repeatedly fail the half-open probe: each one is a half-open→open
	// re-trip and must be reported, even though fails is now past the
	// threshold (the old logic returned false here every time).
	for probe := 0; probe < 3; probe++ {
		time.Sleep(40 * time.Millisecond)
		if !b.allow() {
			t.Fatalf("probe %d: cooldown elapsed, the half-open probe should be admitted", probe)
		}
		if !b.failure() {
			t.Fatalf("probe %d: failed half-open probe must report the re-open transition", probe)
		}
		if b.allow() {
			t.Fatalf("probe %d: circuit must be open again right after the failed probe", probe)
		}
	}

	// A successful probe closes the circuit and reports the open→closed
	// transition exactly once.
	time.Sleep(40 * time.Millisecond)
	if !b.allow() {
		t.Fatal("final probe should be admitted")
	}
	if !b.success() {
		t.Fatal("successful probe must report the open→closed transition")
	}
	if b.success() {
		t.Fatal("success on a closed circuit must not report a transition")
	}

	// Back in the closed state the threshold applies afresh.
	if b.failure() {
		t.Fatal("first failure after close must not report an open transition")
	}
	if !b.failure() {
		t.Fatal("threshold-th failure after close must report the transition")
	}
}

// TestBackoffSleepAdvances pins the capped-exponential schedule: each call
// doubles the step up to the cap.
func TestBackoffSleepAdvances(t *testing.T) {
	rng := newLockedRand(1)
	cur := 100 * time.Microsecond
	max := 350 * time.Microsecond
	backoffSleep(&cur, max, rng)
	if cur != 200*time.Microsecond {
		t.Fatalf("after one step cur = %v, want 200µs", cur)
	}
	backoffSleep(&cur, max, rng)
	if cur != max {
		t.Fatalf("after two steps cur = %v, want the cap %v", cur, max)
	}
	backoffSleep(&cur, max, rng)
	if cur != max {
		t.Fatalf("cap must hold, got %v", cur)
	}
}

// TestBackoffJitterRange verifies the ±50% jitter window: every sleep for
// step d lies in [d/2, 3d/2).
func TestBackoffJitterRange(t *testing.T) {
	rng := newLockedRand(7)
	d := 8 * time.Millisecond
	for i := 0; i < 1000; i++ {
		j := backoffJitter(d, rng)
		if j < d/2 || j >= d/2+d {
			t.Fatalf("jitter %v outside [%v, %v)", j, d/2, d/2+d)
		}
	}
}
