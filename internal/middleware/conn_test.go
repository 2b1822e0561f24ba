package middleware

import (
	"bytes"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
)

// pipePair builds two connected conns over an in-memory duplex link, with
// the given handler on the "server" side.
func pipePair(t *testing.T, handle func(*Frame) *Frame) (client, server *conn) {
	t.Helper()
	cn, sn := net.Pipe()
	client = newConn(cn, connConfig{})
	server = newConn(sn, connConfig{handle: handle, workers: 2})
	t.Cleanup(func() {
		client.close()
		server.close()
	})
	return client, server
}

func TestConnRoundTrip(t *testing.T) {
	client, _ := pipePair(t, func(f *Frame) *Frame {
		if f.Type != MsgGetRun {
			return errFrame("unexpected type %d", f.Type)
		}
		return &Frame{Type: MsgRunData, File: f.File, Idx: f.Idx, Payload: []byte("data")}
	})
	resp, err := client.roundTrip(&Frame{Type: MsgGetRun, File: 1, Idx: 2})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != MsgRunData || string(resp.Payload) != "data" {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestConnConcurrentRoundTrips(t *testing.T) {
	client, _ := pipePair(t, func(f *Frame) *Frame {
		// Echo the request's Idx so responses are distinguishable.
		return &Frame{Type: MsgAck, Idx: f.Idx, Aux: int64(f.Idx) * 10}
	})
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int32) {
			defer wg.Done()
			resp, err := client.roundTrip(&Frame{Type: MsgGetRun, Idx: i})
			if err != nil {
				errs <- err
				return
			}
			if resp.Idx != i || resp.Aux != int64(i)*10 {
				errs <- errContentMismatch
			}
		}(int32(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConnConcurrentRoundTripsMidFlightClose interleaves many concurrent
// round trips with a connection teardown: every call must return either its
// own response or errConnClosed — never hang, never deliver a mismatched
// frame. Run under -race this also exercises the reply-channel pool against
// late response/close races.
func TestConnConcurrentRoundTripsMidFlightClose(t *testing.T) {
	gate := make(chan struct{})
	client, server := pipePair(t, func(f *Frame) *Frame {
		if f.Idx >= 16 {
			<-gate // stall the later requests until after close
		}
		return &Frame{Type: MsgAck, Idx: f.Idx}
	})
	var wg sync.WaitGroup
	results := make([]error, 48)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := client.roundTrip(&Frame{Type: MsgGetRun, Idx: int32(i)})
			if err != nil {
				results[i] = err
				return
			}
			if resp.Idx != int32(i) {
				t.Errorf("request %d got response for %d", i, resp.Idx)
			}
			releaseFrame(resp)
		}(i)
	}
	server.close()
	close(gate)
	wg.Wait()
	// Requests that reached the pending map drain with errConnClosed; ones
	// that lost the race at the write may surface the raw pipe error before
	// this side's teardown finishes. Either way every call must return.
	for i, err := range results {
		if err != nil && err != errConnClosed {
			t.Logf("request %d failed at the write: %v", i, err)
		}
	}
	// The pending map must have fully drained.
	client.pmu.Lock()
	n := len(client.pending)
	client.pmu.Unlock()
	if n != 0 {
		t.Fatalf("%d round trips still pending after close", n)
	}
	if _, err := client.roundTrip(&Frame{Type: MsgGetRun}); err != errConnClosed {
		t.Fatalf("round trip after close: %v, want errConnClosed", err)
	}
}

// TestConnRoundTripTimesOut pins the deadline path: round trips whose
// replies are withheld — two at once, overdue in the same sweep — must each
// fail with errRPCTimeout near the configured deadline, the connection must
// stay usable for later requests, and the late replies must be discarded
// safely (pool ownership: no double release, no delivery to a reused
// request ID).
func TestConnRoundTripTimesOut(t *testing.T) {
	slow := make(chan struct{})
	cn, sn := net.Pipe()
	server := newConn(sn, connConfig{workers: 3, handle: func(f *Frame) *Frame {
		if f.Aux == 1 {
			<-slow // withhold this reply until after the client gave up
		}
		return &Frame{Type: MsgAck, Idx: f.Idx}
	}})
	client := newConn(cn, connConfig{timeout: 60 * time.Millisecond})
	t.Cleanup(func() {
		client.close()
		server.close()
	})

	start := time.Now()
	errs := make(chan error, 2)
	for idx := int32(1); idx <= 2; idx++ {
		go func() {
			_, err := client.roundTrip(&Frame{Type: MsgGetRun, Idx: idx, Aux: 1})
			errs <- err
		}()
	}
	for range 2 {
		if err := <-errs; err != errRPCTimeout {
			t.Fatalf("withheld reply: err = %v, want errRPCTimeout", err)
		}
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond || elapsed > 2*time.Second {
		t.Fatalf("timeouts fired after %v, want ≈60ms", elapsed)
	}

	// Release the stalled reply and issue a fresh request on the same
	// connection: the late frame for the abandoned ID must be dropped and
	// the new round trip must still complete.
	close(slow)
	resp, err := client.roundTrip(&Frame{Type: MsgGetRun, Idx: 2})
	if err != nil {
		t.Fatalf("round trip after the timeouts: %v", err)
	}
	if resp.Idx != 2 {
		t.Fatalf("resp.Idx = %d, want 2 (late replies must not be delivered)", resp.Idx)
	}
	releaseFrame(resp)

	// The abandoned entry must not linger in the pending map.
	client.pmu.Lock()
	n := len(client.pending)
	client.pmu.Unlock()
	if n != 0 {
		t.Fatalf("%d entries still pending after timeout", n)
	}
}

// TestConnWriteToStalledPeerFails pins the write deadline: a peer that
// stops reading (a full TCP window; here a pipe nobody reads) must fail the
// round trip blocked in its write within about one timeout, and the conn
// must close, since a frame may be half out.
func TestConnWriteToStalledPeerFails(t *testing.T) {
	cn, sn := net.Pipe()
	defer sn.Close()
	client := newConn(cn, connConfig{timeout: 60 * time.Millisecond})
	defer client.close()

	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := client.roundTrip(&Frame{Type: MsgGetRun, File: 1})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("round trip to a peer that never reads succeeded")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("write to a stalled peer still blocked after 2s")
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("stalled write failed after %v, before its 60ms timeout", elapsed)
	}
	select {
	case <-client.done:
	case <-time.After(2 * time.Second):
		t.Fatal("conn still open after a failed write")
	}
}

// TestConnReplyLanding pins where a reply's payload lands (replyInto): an
// owned reply in one exact-length slice off the pool, a run reply's blocks
// each in an arena frame of its own after a home reply's codes, and a run reply
// whose length disagrees with its layout in one pooled buffer, whole, for
// the caller to refuse.
func TestConnReplyLanding(t *testing.T) {
	geom := block.Geometry{Size: 1024, ExtentBlocks: 8}
	const size = 2600 // blocks of 1024, 1024 and 552 bytes
	blk := func(i int32) []byte { return SyntheticBlock(1, i, blockLen(geom, size, i)) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	homeCodes := appendHomeCodes(nil, []int32{homeServed, 5, homeServed})
	replies := map[int32]*Frame{
		0: {Type: MsgFileData, Payload: make([]byte, 20000)},
		1: {Type: MsgRunData, Aux: packRunAux(3, 0), Payload: cat(blk(0), blk(1), blk(2))},
		2: {Type: MsgRunData, Aux: packRunAux(2, 0), Payload: cat(blk(0), blk(1))},
		3: {Type: MsgRunData, Aux: packRunAux(2, 1), Payload: cat(homeCodes, blk(0), blk(2))},
		4: {Type: MsgRunData, Aux: packRunAux(2, 0), Payload: cat(blk(0), blk(1)[1:])},
		5: {Type: MsgRunData, Aux: packRunAux(2, 1), Payload: cat(homeCodes, blk(0), blk(2), []byte{0})},
		6: {Type: MsgRunData, Aux: packRunAux(4, 0), Payload: cat(blk(0), blk(1), blk(2))},
	}
	client, _ := pipePair(t, func(f *Frame) *Frame {
		r := *replies[f.Idx]
		return &r
	})
	peer := replyInto{kind: intoRun, count: 3, size: size, geom: geom}
	home := peer
	home.codes = true
	for _, c := range []struct {
		name    string
		idx     int32
		into    replyInto
		payload []byte   // the pooled Payload, or the owned one
		blocks  [][]byte // Frame.bufs
	}{
		{"owned whole file", 0, replyInto{kind: intoOwned}, replies[0].Payload, nil},
		{"whole peer run", 1, peer, nil, [][]byte{blk(0), blk(1), blk(2)}},
		{"peer run prefix", 2, peer, nil, [][]byte{blk(0), blk(1)}},
		{"home reply", 3, home, homeCodes, [][]byte{blk(0), blk(2)}},
		{"short peer run", 4, peer, replies[4].Payload, nil},
		{"long home reply", 5, home, replies[5].Payload, nil},
		{"peer run over its request", 6, peer, replies[6].Payload, nil},
		{"pooled run", 1, replyInto{}, replies[1].Payload, nil},
	} {
		req := &Frame{Type: MsgGetRun, Idx: c.idx, into: c.into}
		resp, err := client.roundTrip(req)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(resp.Payload, c.payload) || len(resp.bufs) != len(c.blocks) {
			t.Fatalf("%s: payload of %d bytes and %d blocks, want %d and %d", c.name, len(resp.Payload), len(resp.bufs), len(c.payload), len(c.blocks))
		}
		if owned := c.into.kind == intoOwned; owned != (resp.pbuf == nil && len(resp.Payload) > 0) || owned && cap(resp.Payload) != len(resp.Payload) {
			t.Fatalf("%s: payload of %d bytes, capacity %d, pooled %v", c.name, len(resp.Payload), cap(resp.Payload), resp.pbuf != nil)
		}
		for i, pb := range resp.bufs {
			if !bytes.Equal(pb.data, c.blocks[i]) {
				t.Fatalf("%s: block %d differs", c.name, i)
			}
		}
		if err := ownFrameErr(resp.bufs); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		releaseFrame(resp)
	}
}

func TestConnErrorResponse(t *testing.T) {
	client, _ := pipePair(t, func(f *Frame) *Frame {
		return errFrame("nope")
	})
	if _, err := client.roundTrip(&Frame{Type: MsgGetRun}); err == nil {
		t.Fatal("error response not surfaced")
	}
}

func TestConnCloseFailsPending(t *testing.T) {
	stall := make(chan struct{})
	client, server := pipePair(t, func(f *Frame) *Frame {
		<-stall
		return &Frame{Type: MsgAck}
	})
	done := make(chan error, 1)
	go func() {
		_, err := client.roundTrip(&Frame{Type: MsgGetRun})
		done <- err
	}()
	// Let the request reach the server, then kill the connection.
	server.close()
	if err := <-done; err == nil {
		t.Fatal("round trip on closed conn succeeded")
	}
	close(stall)
	// Further round trips fail fast.
	if _, err := client.roundTrip(&Frame{Type: MsgGetRun}); err == nil {
		t.Fatal("round trip after close succeeded")
	}
}

func TestConnOneWayMessagesIgnoredWithoutHandler(t *testing.T) {
	client, server := pipePair(t, nil)
	// The server has no handler: a request frame must be dropped without
	// wedging the read loop.
	if err := server.write(&Frame{Type: MsgPing}); err != nil {
		t.Fatal(err)
	}
	_ = client
}

// TestConnDirDropSkipsBusyWorkers: a MsgDirDrop is applied on the read
// loop in arrival order and gets no reply, so it never waits behind the
// requests that hold every worker (a home's 1 ms source reads).
func TestConnDirDropSkipsBusyWorkers(t *testing.T) {
	busy, release := make(chan struct{}, 2), make(chan struct{})
	applied := make(chan int32, 3)
	client, _ := pipePair(t, func(f *Frame) *Frame {
		if f.Type == MsgDirDrop {
			applied <- f.Idx
			return nil
		}
		busy <- struct{}{}
		<-release
		return &Frame{Type: MsgAck}
	})
	t.Cleanup(func() { close(release) })
	for i := 0; i < 2; i++ { // both workers
		go func() { _, _ = client.roundTrip(&Frame{Type: MsgGetRun}) }() // answered once released
		<-busy
	}
	for i := int32(1); i <= 3; i++ {
		if err := client.send(&Frame{Type: MsgDirDrop, Idx: i}); err != nil {
			t.Fatal(err)
		}
	}
	for want := int32(1); want <= 3; want++ {
		select {
		case got := <-applied:
			if got != want {
				t.Fatalf("drop %d applied in place of drop %d", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("drop %d waited behind the busy workers", want)
		}
	}
}

func TestConnStampApplied(t *testing.T) {
	cn, sn := net.Pipe()
	// The request frame is pooled and reclaimed after the handler returns:
	// copy the stamped fields out instead of retaining the frame.
	var gotSender int32
	var gotAge int64
	ready := make(chan struct{})
	server := newConn(sn, connConfig{workers: 1, handle: func(f *Frame) *Frame {
		gotSender, gotAge = f.Sender, f.OldestAge
		close(ready)
		return &Frame{Type: MsgAck}
	}})
	client := newConn(cn, connConfig{stamp: func(f *Frame) {
		f.Sender = 42
		f.OldestAge = 777
	}})
	defer server.close()
	defer client.close()
	if _, err := client.roundTrip(&Frame{Type: MsgGetRun}); err != nil {
		t.Fatal(err)
	}
	<-ready
	if gotSender != 42 || gotAge != 777 {
		t.Fatalf("stamp not applied: sender=%d age=%d", gotSender, gotAge)
	}
}

// TestConnBoundsConcurrentHandlers: a burst of requests on one conn runs on
// the conn's worker pool and nowhere else. Each handler parks until as many
// handlers as there are workers are inside together, so the pool must
// really run that many at once, and it must never run more (the parent's
// one-goroutine-per-request dispatch reaches 9 to 64 here). Nothing is
// timed: barrierWait only elapses when the handlers never meet.
func TestConnBoundsConcurrentHandlers(t *testing.T) {
	const workers, burst = 2, 64
	var mu sync.Mutex
	inside, peak, arrived := 0, 0, 0
	gate := make(chan struct{})
	cn, sn := net.Pipe()
	server := newConn(sn, connConfig{workers: workers, handle: func(f *Frame) *Frame {
		mu.Lock()
		inside++
		if inside > peak {
			peak = inside
		}
		round := gate
		if arrived++; arrived%workers == 0 {
			close(gate)
			gate = make(chan struct{})
		}
		mu.Unlock()
		select {
		case <-round:
		case <-time.After(barrierWait):
			t.Errorf("request %d waited %v for %d concurrent handlers", f.Idx, barrierWait, workers)
		}
		// Linger by yielding, not by sleeping: a dispatcher that starts a
		// goroutine per request gets every chance to bring more handlers in
		// while these are still counted inside.
		for i := 0; i < burst; i++ {
			runtime.Gosched()
		}
		mu.Lock()
		inside--
		mu.Unlock()
		return &Frame{Type: MsgAck, Idx: f.Idx}
	}})
	client := newConn(cn, connConfig{})
	defer server.close()
	defer client.close()

	var wg sync.WaitGroup
	for i := int32(0); i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.roundTrip(&Frame{Type: MsgGetRun, Idx: i})
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			if resp.Idx != i {
				t.Errorf("request %d answered with reply %d", i, resp.Idx)
			}
			releaseFrame(resp)
		}()
	}
	wg.Wait()
	if arrived != burst || peak != workers {
		t.Fatalf("%d of %d requests handled, at most %d handlers at once, want %d", arrived, burst, peak, workers)
	}
}
