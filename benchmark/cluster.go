package main

import (
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/httpfront"
	"repro/internal/middleware"
	"repro/internal/trace"
)

// cluster is the system under test: four nodes on loopback TCP in this
// process, a client, and for HTTP workloads the front door on a real
// socket. It is built only from the program's public functions, and every
// Config field is the default except the three the experiment is about.
type cluster struct {
	nodes   []*middleware.Node
	sources []*timedSource
	client  *middleware.Client
	control *middleware.Client // stats and convergence reads, kept out of client's RPC histograms
	gateway *httpfront.Gateway
	server  *http.Server
	httpAt  string
	served  chan struct{} // closed when the server's accept loop has returned
}

// spanHeader carries the client's root span ID to the front door, so the
// serve span can name its parent.
const spanHeader = "X-Bench-Span"

// startCluster brings the cluster up over the files of tr. capacity gives
// each node's cache size in blocks.
func startCluster(tr *trace.Trace, capacity []int, delay time.Duration, rec *recorder) (*cluster, error) {
	sizes := make(map[block.FileID]int64, len(tr.Files))
	paths := make(map[string]block.FileID, len(tr.Files))
	for _, f := range tr.Files {
		sizes[f.ID] = f.Size
		paths[filePath(f.ID)] = f.ID
	}
	c := &cluster{}
	addrs := make([]string, len(capacity))
	for i, blocks := range capacity {
		src := newTimedSource(middleware.NewMemSource(geom, sizes), delay, rec)
		n, err := middleware.Start(middleware.Config{
			ID: i, CapacityBlocks: blocks, Policy: core.PolicyMaster, Source: src,
		})
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("start node %d: %w", i, err)
		}
		c.nodes = append(c.nodes, n)
		c.sources = append(c.sources, src)
		addrs[i] = n.Addr()
	}
	for _, n := range c.nodes {
		n.SetAddrs(addrs)
	}
	var err error
	if c.client, err = middleware.DialCluster(addrs); err != nil {
		c.Close()
		return nil, err
	}
	if c.control, err = middleware.DialCluster(addrs); err != nil {
		c.Close()
		return nil, err
	}
	c.gateway = httpfront.New(c.client, httpfront.NewPathTable(paths))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.Close()
		return nil, err
	}
	c.httpAt = ln.Addr().String()
	c.server = httpfront.NewServer(serveSpans(c.gateway, rec))
	c.served = make(chan struct{})
	go func() {
		defer close(c.served)
		c.server.Serve(ln) //nolint:errcheck // returns ErrServerClosed when Close stops it
	}()
	return c, nil
}

// pathPrefix precedes the file ID in a file's URL path.
const pathPrefix = "/f/"

func filePath(f block.FileID) string { return pathPrefix + strconv.Itoa(int(f)) }

// serveSpans wraps the gateway so that, while tracing, each request leaves
// an httpfront.serve span whose parent is the client's root span.
func serveSpans(h http.Handler, rec *recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !rec.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := rec.now()
		h.ServeHTTP(w, r)
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		rec.add(span{Name: "httpfront.serve", Start: start, End: rec.now(), ID: rec.newID(), Parent: parent})
	})
}

func (c *cluster) setSourceDelay(on bool) {
	for _, s := range c.sources {
		s.delayOn.Store(on)
	}
}

// Close stops the front door, the client and the nodes.
func (c *cluster) Close() {
	if c.server != nil {
		c.server.Close()
		<-c.served
	}
	if c.client != nil {
		c.client.Close()
	}
	if c.control != nil {
		c.control.Close()
	}
	for _, n := range c.nodes {
		n.Close()
	}
}
