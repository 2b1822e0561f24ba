package httpfront

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/middleware"
	"repro/internal/obs"
)

var testGeom = block.Geometry{Size: 1024, ExtentBlocks: 8}

// gwEnv is a live cluster with a gateway in front of it.
type gwEnv struct {
	srv    *httptest.Server
	client *middleware.Client
	gw     *Gateway
	tracer *obs.Tracer
	nodes  []*middleware.Node
}

// startGateway spins an n-node live cluster plus a gateway over it.
func startGateway(t testing.TB, n int, sizes map[block.FileID]int64, table map[string]block.FileID) *gwEnv {
	t.Helper()
	nodes := make([]*middleware.Node, n)
	addrs := make([]string, n)
	for i := range nodes {
		nd, err := middleware.Start(middleware.Config{
			ID: i, CapacityBlocks: 512, Policy: core.PolicyMaster,
			Geometry: testGeom, Source: middleware.NewMemSource(testGeom, sizes),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
		addrs[i] = nd.Addr()
	}
	for _, nd := range nodes {
		nd.SetAddrs(addrs)
	}
	client, err := middleware.DialCluster(addrs)
	if err != nil {
		t.Fatal(err)
	}
	gw := New(client, NewPathTable(table))
	tracer := obs.NewTracer(256)
	gw.SetTracer(tracer)
	mux := http.NewServeMux()
	mux.Handle("/", gw)
	mux.Handle("/stats", StatsHandler(client))
	srv := httptest.NewServer(mux)
	env := &gwEnv{srv: srv, client: client, gw: gw, tracer: tracer, nodes: nodes}
	t.Cleanup(func() {
		srv.Close()
		client.Close()
		for _, nd := range nodes {
			nd.Close()
		}
	})
	return env
}

func defaultEnv(t *testing.T) *gwEnv {
	return startGateway(t, 2,
		map[block.FileID]int64{0: 2500, 1: 100},
		map[string]block.FileID{"/index.html": 0, "/tiny.txt": 1})
}

// synthFile reconstructs the backing store's content for file f: the
// byte-exact oracle streamed responses are compared against.
func synthFile(f block.FileID, size int64) []byte {
	out := make([]byte, 0, size)
	for idx := int32(0); int64(len(out)) < size; idx++ {
		n := size - int64(len(out))
		if n > int64(testGeom.Size) {
			n = int64(testGeom.Size)
		}
		out = append(out, middleware.SyntheticBlock(f, idx, int(n))...)
	}
	return out
}

func TestGatewayServesContent(t *testing.T) {
	env := defaultEnv(t)
	resp, err := http.Get(env.srv.URL + "/index.html")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if len(body) != 2500 {
		t.Fatalf("body = %d bytes, want 2500", len(body))
	}
	if resp.Header.Get("ETag") == "" {
		t.Fatal("no ETag")
	}
	if resp.Header.Get("Content-Length") != "2500" {
		t.Fatalf("Content-Length = %q", resp.Header.Get("Content-Length"))
	}
}

func TestGatewayConditionalGet(t *testing.T) {
	env := defaultEnv(t)
	resp, err := http.Get(env.srv.URL + "/tiny.txt")
	if err != nil {
		t.Fatal(err)
	}
	etag := resp.Header.Get("ETag")
	resp.Body.Close()

	req, _ := http.NewRequest(http.MethodGet, env.srv.URL+"/tiny.txt", nil)
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET status = %d, want 304", resp2.StatusCode)
	}
	if got := env.gw.Stats().NotModified; got != 1 {
		t.Fatalf("NotModified counter = %d, want 1", got)
	}
}

// TestGatewayConditionalGetZeroBlockReads pins the cheap-validator
// contract: a 304 costs the zero-length size probe and nothing else — no
// cluster block is accessed, read from a peer, or pulled from disk.
func TestGatewayConditionalGetZeroBlockReads(t *testing.T) {
	env := defaultEnv(t)
	resp, err := http.Get(env.srv.URL + "/index.html")
	if err != nil {
		t.Fatal(err)
	}
	etag := resp.Header.Get("ETag")
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()

	before, err := env.client.ClusterStats()
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodGet, env.srv.URL+"/index.html", nil)
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("status = %d, want 304", resp2.StatusCode)
	}
	after, err := env.client.ClusterStats()
	if err != nil {
		t.Fatal(err)
	}
	if after.Accesses != before.Accesses || after.DiskReads != before.DiskReads ||
		after.RemoteHits != before.RemoteHits {
		t.Fatalf("304 touched blocks: accesses %d→%d disk %d→%d remote %d→%d",
			before.Accesses, after.Accesses, before.DiskReads, after.DiskReads,
			before.RemoteHits, after.RemoteHits)
	}
}

// TestGatewayInvalidate pins the write→revalidate path: bumping a file's
// generation changes its validator, so a stale ETag refetches.
func TestGatewayInvalidate(t *testing.T) {
	env := defaultEnv(t)
	resp, err := http.Get(env.srv.URL + "/tiny.txt")
	if err != nil {
		t.Fatal(err)
	}
	etag := resp.Header.Get("ETag")
	resp.Body.Close()

	env.gw.Invalidate(1)
	req, _ := http.NewRequest(http.MethodGet, env.srv.URL+"/tiny.txt", nil)
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status after invalidate = %d, want 200", resp2.StatusCode)
	}
	if resp2.Header.Get("ETag") == etag {
		t.Fatal("validator unchanged after Invalidate")
	}
}

// TestGatewayRange exercises the Range handling ServeContent supplies over
// the streaming reader.
func TestGatewayRange(t *testing.T) {
	env := startGateway(t, 2,
		map[block.FileID]int64{0: 5000},
		map[string]block.FileID{"/big.bin": 0})
	want := synthFile(0, 5000)

	cases := []struct {
		spec  string
		start int
		end   int // exclusive
	}{
		{"bytes=100-199", 100, 200},
		{"bytes=1000-3000", 1000, 3001},  // crosses block boundaries
		{"bytes=4500-", 4500, 5000},      // open-ended tail
		{"bytes=-300", 5000 - 300, 5000}, // suffix range
	}
	for _, tc := range cases {
		req, _ := http.NewRequest(http.MethodGet, env.srv.URL+"/big.bin", nil)
		req.Header.Set("Range", tc.spec)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusPartialContent {
			t.Fatalf("%s: status = %d, want 206", tc.spec, resp.StatusCode)
		}
		if !strings.HasPrefix(resp.Header.Get("Content-Range"), "bytes ") {
			t.Fatalf("%s: Content-Range = %q", tc.spec, resp.Header.Get("Content-Range"))
		}
		if string(body) != string(want[tc.start:tc.end]) {
			t.Fatalf("%s: body mismatch (%d bytes)", tc.spec, len(body))
		}
	}
	if got := env.gw.Stats().RangeRequests; got != uint64(len(cases)) {
		t.Fatalf("RangeRequests = %d, want %d", got, len(cases))
	}
}

// TestGatewayStreamsMultiBlockFile fetches a file much larger than a block
// through a live 4-node cluster and checks the streamed response is
// byte-identical to the backing store.
func TestGatewayStreamsMultiBlockFile(t *testing.T) {
	const size = 300*1024 + 333 // ~300 blocks, unaligned tail
	env := startGateway(t, 4,
		map[block.FileID]int64{0: size, 1: 4096, 2: 100},
		map[string]block.FileID{"/big.bin": 0, "/mid.bin": 1, "/small.txt": 2})
	resp, err := http.Get(env.srv.URL + "/big.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want := synthFile(0, size)
	if len(body) != len(want) {
		t.Fatalf("body = %d bytes, want %d", len(body), len(want))
	}
	if string(body) != string(want) {
		t.Fatal("streamed body differs from backing store")
	}
}

// TestGatewayStreamingContract checks every body shape the gateway sends
// against FileReader.ReadAt, for files just below, at and just above the
// block, the 32 KB copy chunk, the 64 KB head and the first chunk past the
// head: a plain GET (the head and ranged replies written as they are), an
// unaligned Range (ranged replies only), a multi-range request (ServeContent's
// pipe, through the pooled copy buffer) and a HEAD (no body at all).
func TestGatewayStreamingContract(t *testing.T) {
	var sizes []int64
	for _, edge := range []int64{1024, 32 << 10, headLen, headLen + 32<<10} {
		sizes = append(sizes, edge-1, edge, edge+1)
	}
	files := map[block.FileID]int64{}
	table := map[string]block.FileID{}
	for i, size := range sizes {
		files[block.FileID(i)] = size
		table["/f"+strconv.Itoa(i)+".bin"] = block.FileID(i)
	}
	env := startGateway(t, 2, files, table)
	do := func(method, path, rng string) (*http.Response, []byte) {
		t.Helper()
		req, _ := http.NewRequest(method, env.srv.URL+path, nil)
		if rng != "" {
			req.Header.Set("Range", rng)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}
	for i, size := range sizes {
		f, path := block.FileID(i), "/f"+strconv.Itoa(i)+".bin"
		fr, err := env.client.Open(f)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, size)
		if n, err := fr.ReadAt(want, 0); int64(n) != size {
			t.Fatalf("size %d: ReadAt read %d bytes: %v", size, n, err)
		}

		if resp, body := do(http.MethodGet, path, ""); resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) {
			t.Errorf("size %d: GET status %d, %d bytes, differs from ReadAt", size, resp.StatusCode, len(body))
		}

		lo, hi := size/3+1, size-2 // unaligned at both ends
		if resp, body := do(http.MethodGet, path, fmt.Sprintf("bytes=%d-%d", lo, hi)); resp.StatusCode != http.StatusPartialContent || !bytes.Equal(body, want[lo:hi+1]) {
			t.Errorf("size %d: Range %d-%d: status %d, %d bytes, differs from ReadAt", size, lo, hi, resp.StatusCode, len(body))
		}

		parts := [][2]int64{{1, 10}, {size / 2, size - 1}}
		resp, body := do(http.MethodGet, path, fmt.Sprintf("bytes=%d-%d,%d-%d", parts[0][0], parts[0][1], parts[1][0], parts[1][1]))
		_, params, _ := mime.ParseMediaType(resp.Header.Get("Content-Type"))
		if resp.StatusCode != http.StatusPartialContent || params["boundary"] == "" {
			t.Fatalf("size %d: multi-range: status %d, Content-Type %q", size, resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		mr := multipart.NewReader(bytes.NewReader(body), params["boundary"])
		for _, pr := range parts {
			part, err := mr.NextPart()
			if err != nil {
				t.Fatalf("size %d: multi-range part %v: %v", size, pr, err)
			}
			if got, _ := io.ReadAll(part); !bytes.Equal(got, want[pr[0]:pr[1]+1]) {
				t.Errorf("size %d: multi-range part %v: %d bytes, differs from ReadAt", size, pr, len(got))
			}
		}

		if resp, body := do(http.MethodHead, path, ""); resp.StatusCode != http.StatusOK || len(body) != 0 ||
			resp.Header.Get("Content-Length") != strconv.FormatInt(size, 10) {
			t.Errorf("size %d: HEAD status %d, Content-Length %q, %d body bytes", size, resp.StatusCode, resp.Header.Get("Content-Length"), len(body))
		}
	}
	if got := env.gw.Stats().Errors; got != 0 {
		t.Errorf("Errors = %d, want 0", got)
	}
}

// TestGatewayHandoff pins the §4.1 hand-off surface over a live 4-node
// cluster: every resolvable GET is forwarded to its home node, the counter
// and trace events record it, and disabling hand-off stops it.
func TestGatewayHandoff(t *testing.T) {
	sizes := map[block.FileID]int64{}
	table := map[string]block.FileID{}
	for f := block.FileID(0); f < 8; f++ {
		sizes[f] = 2048
		table[fmt.Sprintf("/f/%d", f)] = f
	}
	env := startGateway(t, 4, sizes, table)
	for f := 0; f < 8; f++ {
		resp, err := http.Get(fmt.Sprintf("%s/f/%d", env.srv.URL, f))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("file %d: status %d", f, resp.StatusCode)
		}
	}
	st := env.gw.Stats()
	if st.Handoffs != 8 {
		t.Fatalf("Handoffs = %d, want 8 (one per GET)", st.Handoffs)
	}
	events := env.tracer.Events()
	handoffs := 0
	for _, e := range events {
		if e.Kind == "http_handoff" {
			handoffs++
			if home, ok := env.client.HomeOf(block.FileID(e.File)); !ok || int32(home) != e.Peer {
				t.Fatalf("trace event peer %d disagrees with HomeOf(%d)", e.Peer, e.File)
			}
		}
	}
	if handoffs != 8 {
		t.Fatalf("trace recorded %d http_handoff events, want 8", handoffs)
	}

	env.gw.SetHandoff(false)
	resp, err := http.Get(env.srv.URL + "/f/0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := env.gw.Stats().Handoffs; got != 8 {
		t.Fatalf("Handoffs moved to %d with hand-off disabled", got)
	}
}

// TestGatewayErrorMapping pins the middleware-error classification: a path
// that resolves to a file the cluster does not know is a 404, and a dead
// cluster is a 502.
func TestGatewayErrorMapping(t *testing.T) {
	env := startGateway(t, 2,
		map[block.FileID]int64{0: 100},
		map[string]block.FileID{"/ok.txt": 0, "/ghost.bin": 99})

	resp, err := http.Get(env.srv.URL + "/ghost.bin")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown cluster file: status = %d, want 404", resp.StatusCode)
	}
	if got := env.gw.Stats().NotFound; got != 1 {
		t.Fatalf("NotFound counter = %d, want 1", got)
	}

	for _, nd := range env.nodes {
		nd.Close()
	}
	resp2, err := http.Get(env.srv.URL + "/ok.txt")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadGateway {
		t.Fatalf("dead cluster: status = %d, want 502", resp2.StatusCode)
	}
	if got := env.gw.Stats().Errors; got != 1 {
		t.Fatalf("Errors counter = %d, want 1", got)
	}
}

// closingRecorder is a recorder that runs beforeHeader when the status goes
// out, after the gateway's open and before the body.
type closingRecorder struct {
	*httptest.ResponseRecorder
	beforeHeader func()
}

func (w *closingRecorder) WriteHeader(code int) {
	w.beforeHeader()
	w.ResponseRecorder.WriteHeader(code)
}

// TestGatewayBodyFailureCounted: when every node is gone after the open,
// the ranged reads past the head fail on every node, failover cannot help,
// and the 200 is already out. The body stops short after the head, and
// the failure is counted in Errors, not passed off as a served file.
func TestGatewayBodyFailureCounted(t *testing.T) {
	const size = headLen + 40<<10
	env := startGateway(t, 2, map[block.FileID]int64{0: size}, map[string]block.FileID{"/big.bin": 0})
	w := &closingRecorder{ResponseRecorder: httptest.NewRecorder(), beforeHeader: func() {
		for _, nd := range env.nodes {
			nd.Close()
		}
	}}
	env.gw.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/big.bin", nil))
	body := w.Body.Bytes()
	if w.Code != http.StatusOK || len(body) >= size {
		t.Fatalf("status %d, %d of %d bytes: want a 200 with a short body", w.Code, len(body), size)
	}
	if !bytes.Equal(body, synthFile(0, size)[:len(body)]) {
		t.Fatal("the short body is not a prefix of the file")
	}
	st := env.gw.Stats()
	if st.Errors != 1 {
		t.Fatalf("Errors = %d, want 1", st.Errors)
	}
	if st.BytesServed != uint64(len(body)) {
		t.Fatalf("BytesServed = %d, want the %d bytes written", st.BytesServed, len(body))
	}
}

// timeoutErr is a net.Error whose Timeout() is true.
type timeoutErr struct{}

func (timeoutErr) Error() string   { return "fake timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

func TestStatusForError(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{fmt.Errorf("wrapped: %w", middleware.ErrUnknownFile), http.StatusNotFound},
		{timeoutErr{}, http.StatusGatewayTimeout},
		{fmt.Errorf("dial: %w", net.Error(timeoutErr{})), http.StatusGatewayTimeout},
		{errors.New("remote error: something else"), http.StatusBadGateway},
		{io.ErrUnexpectedEOF, http.StatusBadGateway},
	}
	for _, tc := range cases {
		if got := StatusForError(tc.err); got != tc.want {
			t.Fatalf("StatusForError(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// TestNotFoundCrossesWire pins that the not-found classification survives
// the MsgErr wire crossing end to end.
func TestNotFoundCrossesWire(t *testing.T) {
	env := defaultEnv(t)
	_, err := env.client.Open(block.FileID(12345))
	if err == nil {
		t.Fatal("open of unknown file succeeded")
	}
	if !middleware.IsNotFound(err) {
		t.Fatalf("error not classified as not-found: %v", err)
	}
	if StatusForError(err) != http.StatusNotFound {
		t.Fatalf("StatusForError = %d, want 404", StatusForError(err))
	}
}

// TestGatewayH2C pins the front door's cleartext HTTP/2 support.
func TestGatewayH2C(t *testing.T) {
	env := defaultEnv(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(env.gw)
	go srv.Serve(ln) //nolint:errcheck
	t.Cleanup(func() { srv.Close() })

	tr := &http.Transport{Protocols: new(http.Protocols)}
	tr.Protocols.SetUnencryptedHTTP2(true)
	c := &http.Client{Transport: tr}
	resp, err := c.Get("http://" + ln.Addr().String() + "/index.html")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.ProtoMajor != 2 {
		t.Fatalf("proto = %s, want HTTP/2", resp.Proto)
	}
	if len(body) != 2500 {
		t.Fatalf("h2c body = %d bytes, want 2500", len(body))
	}

	// The same listener still speaks HTTP/1.1 keep-alive.
	c1 := &http.Client{}
	resp1, err := c1.Get("http://" + ln.Addr().String() + "/tiny.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer resp1.Body.Close()
	if resp1.ProtoMajor != 1 {
		t.Fatalf("proto = %s, want HTTP/1.1", resp1.Proto)
	}
}

func TestGatewayNotFoundAndMethods(t *testing.T) {
	env := defaultEnv(t)
	resp, err := http.Get(env.srv.URL + "/missing")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing path status = %d", resp.StatusCode)
	}
	post, err := http.Post(env.srv.URL+"/index.html", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status = %d", post.StatusCode)
	}
}

func TestGatewayHead(t *testing.T) {
	env := defaultEnv(t)
	resp, err := http.Head(env.srv.URL + "/index.html")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HEAD status = %d", resp.StatusCode)
	}
	if resp.Header.Get("Content-Length") != "2500" {
		t.Fatalf("HEAD Content-Length = %q", resp.Header.Get("Content-Length"))
	}
	body, _ := io.ReadAll(resp.Body)
	if len(body) != 0 {
		t.Fatal("HEAD returned a body")
	}
}

func TestStatsEndpoint(t *testing.T) {
	env := defaultEnv(t)
	if _, err := http.Get(env.srv.URL + "/index.html"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(env.srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "accesses=") {
		t.Fatalf("stats body: %s", body)
	}
}

func TestStatsJSONHandler(t *testing.T) {
	env := defaultEnv(t)
	if _, err := http.Get(env.srv.URL + "/index.html"); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	env.gw.StatsJSONHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/httpstats", nil))
	if !strings.Contains(rec.Body.String(), `"handoffs"`) {
		t.Fatalf("stats JSON: %s", rec.Body.String())
	}
}

func TestPathTableAdd(t *testing.T) {
	tab := NewPathTable(nil)
	if _, ok := tab.Resolve("/x"); ok {
		t.Fatal("empty table resolved a path")
	}
	tab.Add("/x", 7)
	f, ok := tab.Resolve("/x")
	if !ok || f != 7 {
		t.Fatalf("Resolve = %d,%v", f, ok)
	}
}
