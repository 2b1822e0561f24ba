// Package httpfront is the web-server layer of the paper's motivating
// scenario: an off-the-shelf HTTP front end over the cooperative caching
// middleware. Any gateway is a valid entry point for any request; when the
// client's membership view knows the file's home node, the gateway hands
// the request off there at connection time (the paper's §4.1 request
// hand-off, surfaced as a counter and a trace event) so the read enters
// where the blocks live. Responses stream through a middleware.FileReader
// in bounded chunks — the gateway never materializes a whole file — and
// http.ServeContent supplies Range, If-Range, HEAD, and conditional-GET
// semantics on top of it. A plain GET opens the reader with the round trip
// that also brings back the file's first 64 KB, so a file that small costs
// the cluster one RPC.
package httpfront

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"path"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/middleware"
	"repro/internal/obs"
)

// Resolver maps a URL path to a file ID. ok is false for unknown paths.
type Resolver interface {
	Resolve(urlPath string) (f block.FileID, ok bool)
}

// PathTable is a static Resolver backed by a map.
type PathTable struct {
	mu sync.RWMutex
	m  map[string]block.FileID
}

// NewPathTable builds a resolver from path → file ID entries. Paths should
// begin with "/".
func NewPathTable(entries map[string]block.FileID) *PathTable {
	cp := make(map[string]block.FileID, len(entries))
	for p, f := range entries {
		cp[p] = f
	}
	return &PathTable{m: cp}
}

// Resolve implements Resolver.
func (t *PathTable) Resolve(p string) (block.FileID, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	f, ok := t.m[p]
	return f, ok
}

// Add registers (or replaces) a path.
func (t *PathTable) Add(p string, f block.FileID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.m[p] = f
}

// Gateway serves HTTP from a middleware cluster.
type Gateway struct {
	// c is first so its 64-bit atomics are 8-byte aligned on every platform.
	c GatewayStats

	client  *middleware.Client
	resolve Resolver
	tracer  *obs.Tracer
	handoff bool

	// gens holds per-file write generations feeding the ETag validator;
	// Invalidate bumps them so conditional GETs revalidate after a write.
	genMu sync.RWMutex
	gens  map[block.FileID]uint64
}

// GatewayStats declares the gateway's serving counters (see obs); its JSON
// form is /httpstats. Errors counts requests a cluster failure spoiled: 5xx
// responses, and bodies cut short after a 200 or 206 went out.
type GatewayStats struct {
	Requests      uint64 `json:"requests" metric:"cc_http_requests_total" help:"HTTP requests accepted by the gateway"`
	Handoffs      uint64 `json:"handoffs" metric:"cc_http_handoffs_total" help:"requests entered at the file's home node"`
	NotModified   uint64 `json:"not_modified" metric:"cc_http_not_modified_total" help:"304 responses"`
	NotFound      uint64 `json:"not_found" metric:"cc_http_not_found_total" help:"404 responses"`
	RangeRequests uint64 `json:"range_requests" metric:"cc_http_range_requests_total" help:"requests with a Range header"`
	Errors        uint64 `json:"errors" metric:"cc_http_errors_total" help:"5xx responses and bodies cut short by cluster failures"`
	BytesServed   uint64 `json:"bytes_served" metric:"cc_http_bytes_served_total" help:"response body bytes written"`
}

// New builds a gateway over client using resolver, with locality hand-off
// enabled. The client's membership view is refreshed (best effort) so
// home placement is known from the first request.
func New(client *middleware.Client, resolver Resolver) *Gateway {
	g := &Gateway{
		client:  client,
		resolve: resolver,
		handoff: true,
		gens:    make(map[block.FileID]uint64),
	}
	client.RefreshMembership() //nolint:errcheck // best effort; gateway works round-robin without a view
	return g
}

// SetTracer installs a ring-buffer tracer recording "http_handoff" events.
func (g *Gateway) SetTracer(t *obs.Tracer) { g.tracer = t }

// SetHandoff toggles locality-aware entry-node selection (on by default).
func (g *Gateway) SetHandoff(on bool) { g.handoff = on }

// Stats snapshots the gateway's serving counters.
func (g *Gateway) Stats() GatewayStats { return obs.Snapshot(&g.c) }

// RegisterMetrics exposes the gateway counters on a Prometheus registry.
func (g *Gateway) RegisterMetrics(r *obs.Registry) { obs.Register(r, &g.c) }

// Invalidate bumps file f's validator generation. Call it after writing f
// through the cluster so cached ETags stop matching and clients refetch.
func (g *Gateway) Invalidate(f block.FileID) {
	g.genMu.Lock()
	g.gens[f]++
	g.genMu.Unlock()
}

// validator derives the strong ETag for file f without touching content:
// identity, size, and write generation, in hex: "file-size-gen". The size
// comes from the open, and a conditional request's open is the zero-length
// probe, so a conditional GET that matches costs zero cluster block reads.
func (g *Gateway) validator(f block.FileID, size int64) string {
	g.genMu.RLock()
	gen := g.gens[f]
	g.genMu.RUnlock()
	b := make([]byte, 0, 3*16+4)
	b = append(b, '"')
	b = strconv.AppendUint(b, uint64(f), 16)
	b = append(b, '-')
	b = strconv.AppendUint(b, uint64(size), 16)
	b = append(b, '-')
	b = strconv.AppendUint(b, gen, 16)
	b = append(b, '"')
	return string(b)
}

// StatusForError maps a middleware read failure to an HTTP status:
// unknown files are the client's fault (404), deadline misses are 504,
// and every other cluster failure is 502.
func StatusForError(err error) int {
	switch {
	case middleware.IsNotFound(err):
		return http.StatusNotFound
	case middleware.IsTimeout(err):
		return http.StatusGatewayTimeout
	default:
		return http.StatusBadGateway
	}
}

// countingWriter tracks response bytes and the final status so the gateway
// counters see what http.ServeContent decided, and sends ServeContent's body
// (ReadFrom).
type countingWriter struct {
	http.ResponseWriter
	status int
	bytes  uint64
	// werr is the last error writing to the client; bodyErr is the error
	// that cut the body short at its source, the cluster.
	werr, bodyErr error
}

// Unwrap lets http.ResponseController reach the real writer (flush,
// deadlines, hijack).
func (cw *countingWriter) Unwrap() http.ResponseWriter { return cw.ResponseWriter }

func (cw *countingWriter) WriteHeader(code int) {
	cw.status = code
	cw.ResponseWriter.WriteHeader(code)
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	if cw.status == 0 {
		cw.status = http.StatusOK
	}
	n, err := cw.ResponseWriter.Write(p)
	cw.bytes += uint64(n)
	if err != nil {
		cw.werr = err
	}
	return n, err
}

// copyBufs recycles the 32 KB buffers of ReadFrom's fallback.
var copyBufs = sync.Pool{New: func() any { b := make([]byte, 32<<10); return &b }}

// writerOnly hides countingWriter's ReadFrom from io.CopyBuffer.
type writerOnly struct{ io.Writer }

// ReadFrom sends a body; ServeContent's io.CopyN lands here. A FileReader
// body, which ServeContent wraps in an io.LimitedReader, streams with no
// copy buffer: the head's bytes and each ranged reply's payload are written
// as they are (FileReader.StreamTo). Any other source, such as a
// multi-range body's pipe, goes through a pooled 32 KB buffer. An error
// from the source, not from the client, is kept in bodyErr: the status is
// out by now, so the body stops short.
func (cw *countingWriter) ReadFrom(src io.Reader) (n int64, err error) {
	defer func() {
		if err != nil && !errors.Is(err, cw.werr) {
			cw.bodyErr = err
		}
	}()
	if lr, ok := src.(*io.LimitedReader); ok {
		if fr, ok := lr.R.(*middleware.FileReader); ok {
			n, err = fr.StreamTo(cw, lr.N)
			lr.N -= n
			return n, err
		}
	}
	buf := copyBufs.Get().(*[]byte)
	defer copyBufs.Put(buf)
	return io.CopyBuffer(writerOnly{cw}, src, *buf)
}

// wantsBody reports whether r is certain to be answered with the file from
// its first byte: a GET that neither asks for a range nor carries a
// precondition. Only such a request is worth opening with the head; a HEAD,
// a 304 or a 412 sends no body and a range may start anywhere.
func wantsBody(r *http.Request) bool {
	if r.Method != http.MethodGet {
		return false
	}
	for name := range r.Header {
		if name == "Range" || strings.HasPrefix(name, "If-") {
			return false
		}
	}
	return true
}

// ServeHTTP implements http.Handler: resolves the path, opens a streaming
// reader through the cluster — entering at the file's home node when the
// membership view knows it — and delegates Range/HEAD/conditional handling
// to http.ServeContent over the reader. Peak gateway memory per request is
// the reader's head (at most 64 KB, plain GETs only) plus one ranged reply
// of at most 32 KB, never the file: the body goes from those to w with no
// copy buffer (countingWriter.ReadFrom).
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	atomic.AddUint64(&g.c.Requests, 1)
	if r.Header.Get("Range") != "" {
		atomic.AddUint64(&g.c.RangeRequests, 1)
	}
	f, ok := g.resolve.Resolve(r.URL.Path)
	if !ok {
		atomic.AddUint64(&g.c.NotFound, 1)
		http.NotFound(w, r)
		return
	}
	entry := -1
	if g.handoff {
		if home, ok := g.client.HomeOf(f); ok {
			entry = home
			atomic.AddUint64(&g.c.Handoffs, 1)
			if g.tracer != nil {
				g.tracer.Record(obs.Event{
					UnixNanos: time.Now().UnixNano(),
					Kind:      "http_handoff",
					Node:      -1, // the gateway is not a cluster member
					Peer:      int32(home),
					File:      int64(f),
					Idx:       -1,
				})
			}
		}
	}
	var fr *middleware.FileReader
	var err error
	if wantsBody(r) {
		// The open's reply carries the sniffed bytes and the first copy
		// chunks along with the size; only bytes past the head cost RPCs.
		fr, err = g.client.OpenHeadVia(entry, f)
	} else {
		fr, err = g.client.OpenVia(entry, f)
	}
	if err != nil {
		status := StatusForError(err)
		if status == http.StatusNotFound {
			atomic.AddUint64(&g.c.NotFound, 1)
			http.NotFound(w, r)
			return
		}
		atomic.AddUint64(&g.c.Errors, 1)
		http.Error(w, fmt.Sprintf("middleware read: %v", err), status)
		return
	}

	w.Header().Set("ETag", g.validator(f, fr.Size()))
	if ct := mime.TypeByExtension(path.Ext(r.URL.Path)); ct != "" {
		// Known extensions skip ServeContent's sniff (which, on a reader
		// opened without the head, costs a ranged read of 512 bytes).
		w.Header().Set("Content-Type", ct)
	}
	cw := &countingWriter{ResponseWriter: w}
	// ServeContent handles If-None-Match/If-Range before any read, so a
	// 304's only cluster traffic is the open's zero-length size probe.
	http.ServeContent(cw, r, path.Base(r.URL.Path), time.Time{}, fr)
	fr.Close() //nolint:errcheck // only recycles the head buffer
	atomic.AddUint64(&g.c.BytesServed, cw.bytes)
	if cw.bodyErr != nil {
		atomic.AddUint64(&g.c.Errors, 1)
	}
	if cw.status == http.StatusNotModified {
		atomic.AddUint64(&g.c.NotModified, 1)
	}
}

// NewServer wraps handler in a production-shaped front door: HTTP/1.1 with
// keep-alive and cleartext HTTP/2 (h2c), so both browser-era keep-alive
// fleets and multiplexing clients are first-class.
func NewServer(handler http.Handler) *http.Server {
	protocols := new(http.Protocols)
	protocols.SetHTTP1(true)
	protocols.SetUnencryptedHTTP2(true)
	return &http.Server{
		Handler:           handler,
		Protocols:         protocols,
		ReadHeaderTimeout: 30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
}

// StatsJSONHandler reports the gateway's serving counters as JSON — the
// endpoint ccload scrapes for hand-off accounting when the gateway runs in
// another process.
func (g *Gateway) StatsJSONHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(g.Stats()) //nolint:errcheck // client went away
	})
}

// StatsHandler reports aggregated cluster statistics as plain text.
func StatsHandler(client *middleware.Client) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s, err := client.ClusterStats()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		fmt.Fprintf(w, "%s hit=%.1f%%\n", obs.Pairs(s), s.HitRate()*100)
	})
}
