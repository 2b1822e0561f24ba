package httpfront

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"repro/internal/block"
	"repro/internal/middleware"
)

// headLen mirrors the middleware's head-carrying open: one 64 KB reply.
const headLen = 64 << 10

// clientRPCs sums the gateway client's round trips over every RPC type.
func clientRPCs(c *middleware.Client) uint64 {
	var n uint64
	for _, h := range c.RPCLatency() {
		n += h.Count
	}
	return n
}

// TestGatewayRPCBudget pins what one request costs the cluster, in client
// round trips and in block accesses. Both counts repeat exactly. A plain GET
// is one ranged RPC per 64 KB head plus one per 32 KB copy chunk past it; a
// request that may send no body, or not from byte 0, opens with the
// zero-length probe and pays for the bytes it then reads, as before.
func TestGatewayRPCBudget(t *testing.T) {
	sizes := map[block.FileID]int64{0: 2500, 1: 100, 2: headLen, 3: headLen + 1, 4: 3000}
	env := startGateway(t, 2, sizes, map[string]block.FileID{
		"/index.html": 0, "/tiny.txt": 1, "/head.bin": 2, "/over.bin": 3, "/noext": 4,
	})
	blocks := func(size int64) uint64 { return uint64(testGeom.Count(size)) }
	sniffed := http.DetectContentType(synthFile(4, 512))
	etag := env.gw.validator(0, sizes[0])

	cases := []struct {
		name, method, path string
		file               block.FileID
		header             [2]string
		status             int
		rpcs, accesses     uint64
		contentType        string
	}{
		{name: "GET tiny", method: "GET", path: "/tiny.txt", file: 1, status: 200, rpcs: 1, accesses: 1},
		{name: "GET three blocks", method: "GET", path: "/index.html", file: 0, status: 200, rpcs: 1, accesses: 3},
		{name: "GET exactly the head", method: "GET", path: "/head.bin", file: 2, status: 200, rpcs: 1, accesses: blocks(headLen)},
		{name: "GET head+1", method: "GET", path: "/over.bin", file: 3, status: 200, rpcs: 2, accesses: blocks(headLen + 1)},
		{name: "GET sniffed", method: "GET", path: "/noext", file: 4, status: 200, rpcs: 1, accesses: 3, contentType: sniffed},
		{name: "If-None-Match hit", method: "GET", path: "/index.html", header: [2]string{"If-None-Match", etag}, status: 304, rpcs: 1, accesses: 0},
		{name: "HEAD", method: "HEAD", path: "/index.html", status: 200, rpcs: 1, accesses: 0},
		// ServeContent sniffs for a HEAD too: the probe, then 512 bytes.
		{name: "HEAD sniffed", method: "HEAD", path: "/noext", status: 200, rpcs: 2, accesses: 1, contentType: sniffed},
		{name: "Range", method: "GET", path: "/index.html", header: [2]string{"Range", "bytes=1000-1999"}, status: 206, rpcs: 2, accesses: 2},
		{name: "Range sniffed", method: "GET", path: "/noext", header: [2]string{"Range", "bytes=2100-2199"}, status: 206, rpcs: 3, accesses: 2, contentType: sniffed},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(tc.method, tc.path, nil)
		if tc.header[0] != "" {
			req.Header.Set(tc.header[0], tc.header[1])
		}
		// ClusterStats is itself RPCs, so it brackets the RPC window.
		before, err := env.client.ClusterStats()
		if err != nil {
			t.Fatal(err)
		}
		rpcs := clientRPCs(env.client)
		w := httptest.NewRecorder()
		env.gw.ServeHTTP(w, req)
		rpcs = clientRPCs(env.client) - rpcs
		after, err := env.client.ClusterStats()
		if err != nil {
			t.Fatal(err)
		}

		if w.Code != tc.status {
			t.Fatalf("%s: status = %d, want %d", tc.name, w.Code, tc.status)
		}
		if rpcs != tc.rpcs {
			t.Errorf("%s: %d client RPCs, want %d", tc.name, rpcs, tc.rpcs)
		}
		if got := after.Accesses - before.Accesses; got != tc.accesses {
			t.Errorf("%s: %d block accesses, want %d", tc.name, got, tc.accesses)
		}
		if tc.contentType != "" && w.Header().Get("Content-Type") != tc.contentType {
			t.Errorf("%s: Content-Type = %q, want the sniffed %q", tc.name, w.Header().Get("Content-Type"), tc.contentType)
		}
		if tc.status == http.StatusOK && tc.method == http.MethodGet &&
			!bytes.Equal(w.Body.Bytes(), synthFile(tc.file, sizes[tc.file])) {
			t.Errorf("%s: body differs from the backing store", tc.name)
		}
	}
}

// TestCountingWriterUnwrap pins that http.ResponseController reaches the
// real writer through the gateway's counting wrapper.
func TestCountingWriterUnwrap(t *testing.T) {
	rec := httptest.NewRecorder()
	cw := &countingWriter{ResponseWriter: rec}
	if err := http.NewResponseController(cw).Flush(); err != nil {
		t.Fatalf("Flush through the wrapper: %v", err)
	}
	if !rec.Flushed {
		t.Fatal("Flush did not reach the wrapped writer")
	}
}

// BenchmarkGatewayGet is one plain GET of a warm 16 KB file (two extents of
// the test geometry) through Gateway.ServeHTTP into a recorder: resolve,
// hand-off, the head-carrying open, ServeContent. The cluster runs in this
// process, so allocs/op and B/op cover the entry node's side of the one RPC
// as well as the gateway's.
func BenchmarkGatewayGet(b *testing.B) {
	const size = 16 << 10
	env := startGateway(b, 2, map[block.FileID]int64{0: size}, map[string]block.FileID{"/f.bin": 0})
	req := httptest.NewRequest(http.MethodGet, "/f.bin", nil)
	body := make([]byte, 0, size)
	get := func() {
		w := httptest.NewRecorder()
		w.Body = bytes.NewBuffer(body[:0]) // sized, so the recorder does not grow it per write
		env.gw.ServeHTTP(w, req)
		if w.Code != http.StatusOK || w.Body.Len() != size {
			b.Fatalf("status %d, %d bytes", w.Code, w.Body.Len())
		}
	}
	get() // warm the cache and the pools
	b.ReportAllocs()
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get()
	}
}

// TestBenchAllocBudget is CI's regression gate for the front door's
// per-request garbage: it runs BenchmarkGatewayGet in-process and fails if
// allocs/op or B/op exceeds the budget below. The budget carries headroom
// over the measured values (22 allocs, ≈2.4 KB), but less than one 16 KB
// buffer: a head that stops going back to the payload pool, an entry node
// that copies its reply into a fresh buffer, or a copy buffer under
// ServeContent each cost that per request and trip it.
// Gated behind CC_BENCH_BUDGET=1, like the middleware's gate.
func TestBenchAllocBudget(t *testing.T) {
	if os.Getenv("CC_BENCH_BUDGET") != "1" {
		t.Skip("set CC_BENCH_BUDGET=1 to run the allocation budget gate")
	}
	const maxAllocs, maxBytes = 23, 6000
	r := testing.Benchmark(BenchmarkGatewayGet)
	if r.N == 0 {
		t.Fatal("BenchmarkGatewayGet failed: no iteration ran, so it has no allocs/op to check")
	}
	t.Logf("BenchmarkGatewayGet: %d allocs/op, %d B/op, budget %d, %d (%d ns/op)",
		r.AllocsPerOp(), r.AllocedBytesPerOp(), maxAllocs, maxBytes, r.NsPerOp())
	if r.AllocsPerOp() > maxAllocs || r.AllocedBytesPerOp() > maxBytes {
		t.Errorf("BenchmarkGatewayGet exceeds its budget")
	}
}
