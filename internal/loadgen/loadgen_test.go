package loadgen

import (
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/middleware"
	"repro/internal/trace"
)

// replayGeom is the block layout of every test cluster here, and of the
// model and the expected bytes the equivalence suite checks them against.
var replayGeom = block.Geometry{Size: 1024, ExtentBlocks: 8}

func startCluster(t *testing.T, k, capacity int) (*middleware.Client, map[block.FileID]int64) {
	return startClusterMut(t, k, capacity, nil, middleware.ClientConfig{})
}

// startClusterMut is startCluster with a per-node Config hook and an explicit
// client config (the equivalence suite sets one option per row and attaches
// fault plans through it).
func startClusterMut(t *testing.T, k, capacity int, mut func(i int, cfg *middleware.Config), ccfg middleware.ClientConfig) (*middleware.Client, map[block.FileID]int64) {
	t.Helper()
	geom := replayGeom
	sizes := map[block.FileID]int64{}
	for f := 0; f < 10; f++ {
		sizes[block.FileID(f)] = int64(1024 + 512*f)
	}
	nodes := make([]*middleware.Node, k)
	addrs := make([]string, k)
	for i := 0; i < k; i++ {
		cfg := middleware.Config{
			ID: i, CapacityBlocks: capacity, Policy: core.PolicyMaster,
			Geometry: geom, Source: middleware.NewMemSource(geom, sizes),
		}
		if mut != nil {
			mut(i, &cfg)
		}
		n, err := middleware.Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		addrs[i] = n.Addr()
	}
	for _, n := range nodes {
		n.SetAddrs(addrs)
	}
	client, err := middleware.DialClusterConfig(addrs, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		client.Close()
		for _, n := range nodes {
			n.Close()
		}
	})
	return client, sizes
}

func replayTrace(sizes map[block.FileID]int64, n int) *trace.Trace {
	tr := &trace.Trace{Name: "replay"}
	for f := 0; f < len(sizes); f++ {
		tr.Files = append(tr.Files, trace.File{ID: block.FileID(f), Size: sizes[block.FileID(f)]})
	}
	for i := 0; i < n; i++ {
		tr.Requests = append(tr.Requests, block.FileID(i%len(sizes)))
	}
	return tr
}

func TestReplayMeasures(t *testing.T) {
	client, sizes := startCluster(t, 3, 128)
	tr := replayTrace(sizes, 200)
	res, err := Replay(client, tr, Config{Concurrency: 4, WarmupFrac: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 100 {
		t.Fatalf("measured %d, want 100", res.Requests)
	}
	if res.Errors != 0 || res.Throughput <= 0 || res.Mean <= 0 {
		t.Fatalf("result: %+v", res)
	}
	if res.P99 < res.P50 {
		t.Fatal("percentiles not ordered")
	}
	if res.Cluster.Accesses == 0 {
		t.Fatal("cluster stats missing")
	}
	if !strings.Contains(res.String(), "req/s") {
		t.Fatalf("String() = %q", res.String())
	}
	// After warmup, the hot set fits: most measured requests should be
	// memory hits.
	if res.Cluster.HitRate() < 0.5 {
		t.Fatalf("hit rate %.2f implausibly low", res.Cluster.HitRate())
	}
}

func TestReplayMaxRequests(t *testing.T) {
	client, sizes := startCluster(t, 2, 64)
	tr := replayTrace(sizes, 1000)
	res, err := Replay(client, tr, Config{Concurrency: 2, MaxRequests: 40, WarmupFrac: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 30 {
		t.Fatalf("measured %d, want 30 (40 total − 10 warmup)", res.Requests)
	}
}

func TestReplayValidation(t *testing.T) {
	client, sizes := startCluster(t, 2, 64)
	if _, err := Replay(client, &trace.Trace{Name: "empty"}, Config{}); err == nil {
		t.Fatal("empty trace accepted")
	}
	tr := replayTrace(sizes, 10)
	if _, err := Replay(client, tr, Config{WarmupFrac: 1.5}); err == nil {
		t.Fatal("bad warmup accepted")
	}
}

func TestReplayWithWrites(t *testing.T) {
	client, sizes := startCluster(t, 3, 128)
	tr := replayTrace(sizes, 300)
	res, err := Replay(client, tr, Config{
		Concurrency: 4,
		WarmupFrac:  0.2,
		WriteFrac:   0.3,
		Geometry:    block.Geometry{Size: 1024, ExtentBlocks: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Writes == 0 {
		t.Fatal("no writes happened at WriteFrac=0.3")
	}
	if res.Writes >= res.Requests {
		t.Fatalf("writes %d not a minority of %d", res.Writes, res.Requests)
	}
	st, err := client.ClusterStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Writes == 0 || st.Invalidations == 0 {
		t.Fatalf("cluster saw no write protocol activity: %+v", st)
	}
	if _, err := Replay(client, tr, Config{WriteFrac: 1.5}); err == nil {
		t.Fatal("bad write fraction accepted")
	}
}

func TestReplaySurfacesErrors(t *testing.T) {
	client, sizes := startCluster(t, 2, 64)
	tr := replayTrace(sizes, 10)
	// Reference a file the cluster does not know.
	tr.Files = append(tr.Files, trace.File{ID: 10, Size: 1})
	tr.Requests[5] = 10
	res, err := Replay(client, tr, Config{Concurrency: 1, WarmupFrac: 0.1})
	if err == nil {
		t.Fatal("unknown file did not fail the replay")
	}
	if res.Errors == 0 {
		t.Fatal("error not counted")
	}
}
