package middleware

import (
	"bytes"
	"net"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/core"
)

// benchFrame builds a representative hot-path frame: one cached block of
// payload.
func benchFrame(payload []byte) *Frame {
	return &Frame{
		Type:      MsgRunData,
		Req:       7,
		Sender:    2,
		OldestAge: 123456789,
		File:      11,
		Idx:       3,
		Payload:   payload,
	}
}

// BenchmarkFrameRoundTrip measures one encode+decode of a one-block run frame
// through the wire codec: the per-frame software overhead every remote hit
// pays twice (request and response). allocs/op is the headline number — the
// codec should recycle frames and payload buffers rather than allocate.
func BenchmarkFrameRoundTrip(b *testing.B) {
	payload := SyntheticBlock(11, 3, 8192)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		f := getFrame()
		*f = *benchFrameProto
		f.Payload = payload
		if err := WriteFrame(&buf, f); err != nil {
			b.Fatal(err)
		}
		releaseFrame(f)
		g, err := ReadFrame(&buf)
		if err != nil {
			b.Fatal(err)
		}
		releaseFrame(g)
	}
}

var benchFrameProto = benchFrame(nil)

// BenchmarkConnRoundTrip measures a full request/response over a live conn
// pair (in-memory duplex link): framing, multiplexing, dispatch, and reply
// correlation — everything but the kernel TCP stack.
func BenchmarkConnRoundTrip(b *testing.B) {
	payload := SyntheticBlock(1, 0, 8192)
	cn, sn := net.Pipe()
	server := newConn(sn, connConfig{
		handle: func(f *Frame) *Frame {
			r := getFrame()
			r.Type = MsgRunData
			r.File = f.File
			r.Idx = f.Idx
			r.Payload = payload
			return r
		},
		workers: 1,
	})
	client := newConn(cn, connConfig{})
	defer server.close()
	defer client.close()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := getFrame()
		req.Type = MsgGetRun
		req.File = 1
		resp, err := client.roundTrip(req)
		releaseFrame(req)
		if err != nil {
			b.Fatal(err)
		}
		if len(resp.Payload) != len(payload) {
			b.Fatalf("payload %d bytes", len(resp.Payload))
		}
		releaseFrame(resp)
	}
}

// BenchmarkNodeReadFile measures a warm whole-file read through the node's
// cooperative-cache path (all blocks local after the first iteration): the
// per-block software overhead of ReadFile + GetBlock with no wire traffic.
func BenchmarkNodeReadFile(b *testing.B) {
	geom := block.Geometry{Size: 8192, ExtentBlocks: 8}
	sizes := map[block.FileID]int64{0: 8 * 8192}
	n, err := Start(Config{
		ID: 0, CapacityBlocks: 64, Policy: core.PolicyMaster,
		Geometry: geom, Source: NewMemSource(geom, sizes),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	n.SetAddrs([]string{n.Addr()})
	if _, err := n.ReadFile(0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := n.ReadFile(0)
		if err != nil {
			b.Fatal(err)
		}
		if len(data) != 8*8192 {
			b.Fatalf("read %d bytes", len(data))
		}
	}
}

// BenchmarkStoreGetParallel measures concurrent warm hits on the sharded
// store under GOMAXPROCS goroutines (b.RunParallel): the lock-contention
// profile the shard split exists to flatten. Run with -cpu 1,4 to see the
// scaling; pair with -mutexprofile to see where the remaining contention
// lives. On a 1-CPU host this degenerates to the serial path.
func BenchmarkStoreGetParallel(b *testing.B) {
	const blocks = 256
	// The IDs do not hash evenly over the shards: every shard gets room for
	// the whole warm set, so no warm block is evicted before the loop reads
	// it.
	shards := resolveShards(0, blocks) // NumCPU shards
	s := newShardedStore(blocks*shards, core.PolicyMaster, shards)
	for i := int32(0); i < blocks; i++ {
		s.Insert(block.ID{File: 1, Idx: i}, SyntheticBlock(1, i, 8192), true)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		dst := make([]byte, 8192)
		var i int32
		for pb.Next() {
			id := block.ID{File: 1, Idx: i % blocks}
			i++
			if _, ok := s.CopyInto(id, dst); !ok {
				b.Fatal("warm block missing")
			}
		}
	})
}

// BenchmarkNodeReadFileParallel is BenchmarkNodeReadFile under concurrent
// readers: every goroutine sweeps the same warm 64 KB file, so the store's
// shard mutexes (and the payload refcounts) are the only shared state on the
// path. Run with -cpu 1,4 for the before/after of the shard split.
func BenchmarkNodeReadFileParallel(b *testing.B) {
	geom := block.Geometry{Size: 8192, ExtentBlocks: 8}
	sizes := map[block.FileID]int64{0: 8 * 8192}
	n, err := Start(Config{
		ID: 0, CapacityBlocks: 64, Policy: core.PolicyMaster,
		Geometry: geom, Source: NewMemSource(geom, sizes),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	n.SetAddrs([]string{n.Addr()})
	if _, err := n.ReadFile(0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			data, err := n.ReadFile(0)
			if err != nil {
				b.Fatal(err)
			}
			if len(data) != 8*8192 {
				b.Fatalf("read %d bytes", len(data))
			}
		}
	})
}

// BenchmarkServeRun measures the peer-side cost of serving one 8-block run
// out of the warm store: GetRun pins references, the reply's segments alias
// the pinned buffers, and releaseFrame drops the pins — the scatter-gather
// path with zero payload copies and zero concatenation. allocs/op is the
// headline: the reply frame plus the segment/pin slices, independent of the
// run's byte size.
func BenchmarkServeRun(b *testing.B) {
	geom := block.Geometry{Size: 8192, ExtentBlocks: 8}
	sizes := map[block.FileID]int64{0: 8 * 8192}
	n, err := Start(Config{
		ID: 0, CapacityBlocks: 64, Policy: core.PolicyMaster,
		Geometry: geom, Source: NewMemSource(geom, sizes),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	n.SetAddrs([]string{n.Addr()})
	if _, err := n.ReadFile(0); err != nil { // warm all 8 blocks
		b.Fatal(err)
	}
	req := &Frame{Type: MsgGetRun, File: 0, Idx: 0, Aux: packRunAux(8, 0), Sender: -1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp := n.handleGetRun(req)
		if resp.Type != MsgRunData {
			b.Fatalf("reply type %d", resp.Type)
		}
		if count, _ := unpackRunAux(resp.Aux); count != 8 {
			b.Fatalf("served %d blocks, want 8", count)
		}
		if len(resp.Payload) != 0 {
			b.Fatal("run reply concatenated a payload")
		}
		releaseFrame(resp)
	}
}

// BenchmarkServeRead measures the entry node's side of a warm client read:
// one MsgReadFile of an 8-block file and one MsgReadRange that starts and
// ends mid-block, each answered by handleRead with the reply's segments
// aliasing the pinned store blocks (checked once up front, the first and last
// segment of the range sliced out of their blocks) and the pins dropped by
// releaseFrame. allocs/op is the headline: the pin and segment slices, with
// no payload buffer and no copy, whatever the byte count.
func BenchmarkServeRead(b *testing.B) {
	geom := block.Geometry{Size: 8192, ExtentBlocks: 8}
	sizes := map[block.FileID]int64{0: 8 * 8192}
	n, err := Start(Config{
		ID: 0, CapacityBlocks: 64, Policy: core.PolicyMaster,
		Geometry: geom, Source: NewMemSource(geom, sizes),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	n.SetAddrs([]string{n.Addr()})
	if _, err := n.ReadFile(0); err != nil { // warm all 8 blocks
		b.Fatal(err)
	}
	const off, length = 8192 + 100, 8192 // blocks 1 and 2, unaligned at both ends
	file := &Frame{Type: MsgReadFile, File: 0, Sender: -1}
	rng := &Frame{Type: MsgReadRange, File: 0, Aux: packRange(off, length), Sender: -1}
	serve := func(req *Frame, segs int) *Frame {
		resp := n.handleRead(req)
		if resp.Type != MsgFileData || len(resp.Payload) != 0 || len(resp.Segs) != segs {
			b.Fatalf("reply type %d: %d payload bytes, %d segments, want %d segments", resp.Type, len(resp.Payload), len(resp.Segs), segs)
		}
		return resp
	}
	aliases := func(seg []byte, idx int32, lo int) {
		pb, ok := n.store.GetRef(block.ID{File: 0, Idx: idx})
		if !ok || &seg[0] != &pb.data[lo] {
			b.Fatalf("segment of block %d does not alias the stored buffer", idx)
		}
		pb.release()
	}
	resp := serve(file, 8)
	for i, seg := range resp.Segs {
		aliases(seg, int32(i), 0)
	}
	releaseFrame(resp)
	resp = serve(rng, 2)
	aliases(resp.Segs[0], 1, 100)
	aliases(resp.Segs[1], 2, 0)
	if len(resp.Segs[0])+len(resp.Segs[1]) != length {
		b.Fatalf("range reply carries %d bytes, want %d", len(resp.Segs[0])+len(resp.Segs[1]), length)
	}
	releaseFrame(resp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		releaseFrame(serve(file, 8))
		releaseFrame(serve(rng, 2))
	}
}

// BenchmarkClientReadFileCold measures client whole-file reads against a
// cluster under permanent cache pressure: 128 files × 8 blocks cycle through
// 4 nodes whose combined capacity holds a quarter of the working set, so
// nearly every read finds its blocks gone from the entry node and must fetch
// them — the cold multi-block case the run-granular planner targets (one
// MsgGetRun per believed holder).
func BenchmarkClientReadFileCold(b *testing.B) {
	geom := block.Geometry{Size: 8192, ExtentBlocks: 8}
	const files = 128
	sizes := map[block.FileID]int64{}
	for f := 0; f < files; f++ {
		sizes[block.FileID(f)] = 8 * 8192
	}
	nodes := make([]*Node, 4)
	addrs := make([]string, 4)
	for i := range nodes {
		n, err := Start(Config{
			ID: i, CapacityBlocks: 64, Policy: core.PolicyMaster,
			Geometry: geom, Source: NewMemSource(geom, sizes),
		})
		if err != nil {
			b.Fatal(err)
		}
		defer n.Close()
		nodes[i] = n
		addrs[i] = n.Addr()
	}
	for _, n := range nodes {
		n.SetAddrs(addrs)
	}
	client, err := DialCluster(addrs)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	for f := 0; f < files; f++ {
		if _, err := client.Read(block.FileID(f)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := client.Read(block.FileID(i % files))
		if err != nil {
			b.Fatal(err)
		}
		if len(data) != 8*8192 {
			b.Fatalf("read %d bytes", len(data))
		}
	}
}

// BenchmarkClientReadFile measures the full client→cluster path over
// loopback TCP: one MsgReadFile round trip returning a 64 KB file served
// from warm cluster memory.
func BenchmarkClientReadFile(b *testing.B) {
	geom := block.Geometry{Size: 8192, ExtentBlocks: 8}
	sizes := map[block.FileID]int64{0: 8 * 8192}
	nodes := make([]*Node, 2)
	addrs := make([]string, 2)
	for i := range nodes {
		n, err := Start(Config{
			ID: i, CapacityBlocks: 64, Policy: core.PolicyMaster,
			Geometry: geom, Source: NewMemSource(geom, sizes),
		})
		if err != nil {
			b.Fatal(err)
		}
		defer n.Close()
		nodes[i] = n
		addrs[i] = n.Addr()
	}
	for _, n := range nodes {
		n.SetAddrs(addrs)
	}
	client, err := DialCluster(addrs)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Read(0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := client.Read(0)
		if err != nil {
			b.Fatal(err)
		}
		if len(data) != 8*8192 {
			b.Fatalf("read %d bytes", len(data))
		}
	}
}

// BenchmarkWriteBlock measures the writer's critical path under the
// asynchronous invalidation bus on a 3-node cluster: local invalidate,
// write-through, master install, and one sequenced publish. Peer delivery
// rides the per-peer sender loops off the measured path (drained once after
// the timer stops), so allocs/op is what a write costs its caller — the
// synchronous path used to spawn one goroutine and one frame per peer per
// write, all inside the caller's latency.
func BenchmarkWriteBlock(b *testing.B) {
	geom := block.Geometry{Size: 8192, ExtentBlocks: 8}
	sizes := map[block.FileID]int64{0: 8 * 8192}
	nodes := make([]*Node, 3)
	addrs := make([]string, 3)
	for i := range nodes {
		n, err := Start(Config{
			ID: i, CapacityBlocks: 64, Policy: core.PolicyMaster,
			Geometry: geom, Source: NewMemSource(geom, sizes),
		})
		if err != nil {
			b.Fatal(err)
		}
		defer n.Close()
		nodes[i] = n
		addrs[i] = n.Addr()
	}
	for _, n := range nodes {
		n.SetAddrs(addrs)
	}
	writer := nodes[RingHome(0, len(nodes))] // file 0's home: the write-through is local
	id := block.ID{File: 0, Idx: 0}
	data := bytes.Repeat([]byte{0xAB}, 8192)
	if err := writer.WriteBlock(id, data); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := writer.WriteBlock(id, data); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if !writer.FlushInval(10 * time.Second) {
		b.Fatal("invalidation bus did not drain")
	}
}
