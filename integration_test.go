// End-to-end integration: the full pipeline from trace generation through
// binary persistence, every simulated server variant, and a live cluster
// replay of the same file set — the wiring a downstream user exercises.
package repro

import (
	"bytes"
	"testing"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hw"
	"repro/internal/l2s"
	"repro/internal/lard"
	"repro/internal/loadgen"
	"repro/internal/middleware"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestEndToEndPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	// 1. Generate a workload, persist it, reload it: byte-identical.
	preset := trace.Calgary
	tr := preset.Generate(7, 0.01)
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	tr2, err := trace.ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr2.Requests) != len(tr.Requests) {
		t.Fatal("persistence changed the trace")
	}

	// 2. Drive every simulated server variant with the reloaded trace.
	params := hw.DefaultParams()
	throughputs := map[string]float64{}
	for _, policy := range core.Policies {
		eng := sim.NewEngine(1)
		s := core.New(eng, &params, tr2, core.Config{Nodes: 4, MemoryPerNode: 8 << 20, Policy: policy})
		res := workload.Run(eng, s, tr2, workload.Config{})
		throughputs[policy.String()] = res.Throughput
	}
	{
		eng := sim.NewEngine(1)
		s := l2s.New(eng, &params, tr2, l2s.Config{Nodes: 4, MemoryPerNode: 8 << 20})
		throughputs["l2s"] = workload.Run(eng, s, tr2, workload.Config{}).Throughput
	}
	{
		eng := sim.NewEngine(1)
		s := lard.New(eng, &params, tr2, lard.Config{Nodes: 4, MemoryPerNode: 8 << 20, Replication: true})
		throughputs["lard-r"] = workload.Run(eng, s, tr2, workload.Config{}).Throughput
	}
	for name, tput := range throughputs {
		if tput <= 0 {
			t.Fatalf("%s produced no throughput", name)
		}
	}
	if throughputs["cc-master"] <= throughputs["cc-basic"] {
		t.Fatalf("ordering violated: master %.0f <= basic %.0f",
			throughputs["cc-master"], throughputs["cc-basic"])
	}

	// 3. The experiment harness reproduces a figure over the same preset.
	h := experiments.NewHarness(experiments.Options{TargetRequests: 4000, MemoriesMB: []int{8}})
	fig := h.Figure2(preset, 4)
	if len(fig.Series) != 4 {
		t.Fatalf("figure series = %d", len(fig.Series))
	}

	// 4. A live cluster serves a slice of the same file set, driven by the
	// load generator, with content integrity verified by the middleware's
	// synthetic source.
	geom := block.DefaultGeometry
	sizes := map[block.FileID]int64{}
	liveFiles := 24
	for f := 0; f < liveFiles; f++ {
		sizes[block.FileID(f)] = tr.Files[f].Size
	}
	nodes := make([]*middleware.Node, 3)
	addrs := make([]string, 3)
	for i := range nodes {
		n, err := middleware.Start(middleware.Config{
			ID: i, CapacityBlocks: 512, Policy: core.PolicyMaster,
			Geometry: geom, Source: middleware.NewMemSource(geom, sizes),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes[i] = n
		addrs[i] = n.Addr()
	}
	for _, n := range nodes {
		n.SetAddrs(addrs)
	}
	client, err := middleware.DialCluster(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	replay := &trace.Trace{Name: "live"}
	for f := 0; f < liveFiles; f++ {
		replay.Files = append(replay.Files, trace.File{ID: block.FileID(f), Size: sizes[block.FileID(f)]})
	}
	for i, r := range tr.Requests {
		if i >= 400 {
			break
		}
		replay.Requests = append(replay.Requests, r%block.FileID(liveFiles))
	}
	res, err := loadgen.Replay(client, replay, loadgen.Config{Concurrency: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.Requests == 0 {
		t.Fatalf("live replay: %+v", res)
	}
	if res.Cluster.HitRate() <= 0 {
		t.Fatal("live cluster had no cache hits")
	}
}
