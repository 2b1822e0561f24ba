package middleware

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/obs"
)

// declaredFields lists the counters and gauges Stats declares: its fields,
// embedded structs' included, that carry a metric tag.
func declaredFields() []reflect.StructField {
	var out []reflect.StructField
	for _, f := range reflect.VisibleFields(reflect.TypeFor[Stats]()) {
		if _, ok := f.Tag.Lookup("metric"); ok {
			out = append(out, f)
		}
	}
	return out
}

// aggregate is what ClusterStats should report for one declared field.
func aggregate(f reflect.StructField, per []Stats) uint64 {
	var want uint64
	for _, s := range per {
		v := reflect.ValueOf(s).FieldByIndex(f.Index)
		var x uint64
		if v.CanUint() {
			x = v.Uint()
		} else {
			x = uint64(v.Int())
		}
		if f.Tag.Get("agg") == "max" {
			want = max(want, x)
		} else {
			want += x
		}
	}
	return want
}

// TestClusterStatsAggregation pins the aggregation rules of ClusterStats.
// Every field Stats declares (a metric tag, found by reflection so a
// counter added later cannot be left out) sums across nodes, except the
// agg:"max" levels, the bus backlog and the membership epoch, which take
// the maximum; per-RPC-type latency histograms merge bucket-wise. It checks
// the fold on synthetic per-node values that are nonzero in every field,
// then against a live 4-node cluster, where a crashed node is skipped (its
// counters died with it) instead of failing the aggregate.
func TestClusterStatsAggregation(t *testing.T) {
	fields := declaredFields()
	for _, name := range []string{"InvalBacklog", "MembershipEpoch"} {
		f, ok := reflect.TypeFor[Stats]().FieldByName(name)
		if !ok || f.Tag.Get("agg") != "max" {
			t.Errorf("Stats.%s is not declared agg:\"max\"", name)
		}
	}
	synth := make([]Stats, 3)
	for i := range synth {
		v := reflect.ValueOf(&synth[i]).Elem()
		for j, f := range fields {
			x := uint64((j + 1) * []int{1, 100, 7}[i])
			if fv := v.FieldByIndex(f.Index); fv.CanUint() {
				fv.SetUint(x)
			} else {
				fv.SetInt(int64(x))
			}
		}
	}
	var folded Stats
	for _, s := range synth {
		folded = folded.add(s)
	}
	for _, f := range fields {
		got := reflect.ValueOf(folded).FieldByIndex(f.Index)
		if want := aggregate(f, synth); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("synthetic aggregate %s = %v, want %d", f.Name, got, want)
		}
	}

	sizes := map[block.FileID]int64{0: 4096, 1: 4096, 2: 4096, 3: 4096}
	nodes, client := startCluster(t, 4, 64, sizes, nil)

	// Touch every file through every entry node so each node records
	// accesses and at least one RPC (peer fetch or home read).
	for entry := 0; entry < 4; entry++ {
		for f := 0; f < 4; f++ {
			if _, err := client.ReadVia(entry, block.FileID(f)); err != nil {
				t.Fatalf("read file %d via %d: %v", f, entry, err)
			}
		}
	}

	per := make([]Stats, 4)
	for i := range per {
		s, err := client.NodeStats(i)
		if err != nil {
			t.Fatalf("node %d stats: %v", i, err)
		}
		per[i] = s
	}
	sum, err := client.ClusterStats()
	if err != nil {
		t.Fatalf("cluster stats: %v", err)
	}
	for _, f := range fields {
		got := reflect.ValueOf(sum).FieldByIndex(f.Index)
		if want := aggregate(f, per); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("ClusterStats().%s = %v, want %d from the per-node values", f.Name, got, want)
		}
	}

	var wantAccesses uint64
	wantLat := make(map[string]uint64)
	for _, s := range per {
		wantAccesses += s.Accesses
		for k, h := range s.RPCLatency {
			wantLat[k] += h.Count
		}
	}
	if len(wantLat) == 0 {
		t.Fatal("no node recorded any RPC latency — the cross-node reads should have produced RPCs")
	}
	for k, want := range wantLat {
		h, ok := sum.RPCLatency[k]
		if !ok {
			t.Fatalf("aggregate RPCLatency missing %q", k)
		}
		if h.Count != want {
			t.Fatalf("aggregate RPCLatency[%q].Count = %d, want the per-node sum %d", k, h.Count, want)
		}
		var bucketSum uint64
		for _, b := range h.Buckets {
			bucketSum += b
		}
		if bucketSum != h.Count {
			t.Fatalf("merged histogram %q inconsistent: buckets sum to %d, Count %d", k, bucketSum, h.Count)
		}
	}

	// Crash one node: the aggregate must keep answering, minus its share.
	nodes[3].Close()
	after, err := client.ClusterStats()
	if err != nil {
		t.Fatalf("cluster stats after crash: %v", err)
	}
	wantAfter := wantAccesses - per[3].Accesses
	if after.Accesses > wantAccesses || after.Accesses < wantAfter {
		t.Fatalf("post-crash Accesses = %d, want within [%d, %d] (crashed node skipped)",
			after.Accesses, wantAfter, wantAccesses)
	}

	// All nodes down: aggregation must fail, not report zeros.
	for i := 0; i < 3; i++ {
		nodes[i].Close()
	}
	if _, err := client.ClusterStats(); err == nil {
		t.Fatal("cluster stats with every node down should fail")
	}
}

// TestTraceRPC exercises the trace-dump RPC end to end: events recorded on
// a node's tracer come back through Client.NodeTrace, and a node running
// without a tracer reports an empty dump instead of an error.
func TestTraceRPC(t *testing.T) {
	sizes := map[block.FileID]int64{0: 4096}
	tracer := obs.NewTracer(8)
	_, client := startCluster(t, 2, 64, sizes, func(i int, cfg *Config) {
		if i == 0 {
			cfg.Tracer = tracer
		}
	})

	for i := 0; i < 12; i++ {
		tracer.Record(obs.Event{Kind: traceRetry, Node: 0, Peer: 1, File: 0, Idx: int32(i)})
	}

	d, err := client.NodeTrace(0)
	if err != nil {
		t.Fatalf("trace dump: %v", err)
	}
	if d.Node != 0 {
		t.Fatalf("dump names node %d, want 0", d.Node)
	}
	if d.Total != 12 {
		t.Fatalf("dump total = %d, want 12 (overwritten events still counted)", d.Total)
	}
	if len(d.Events) != 8 {
		t.Fatalf("dump retained %d events, want the ring capacity 8", len(d.Events))
	}
	for i, e := range d.Events {
		if want := int32(i + 4); e.Idx != want {
			t.Fatalf("event %d has Idx %d, want %d (oldest-first after wrap)", i, e.Idx, want)
		}
		if e.Kind != traceRetry {
			t.Fatalf("event %d kind = %q, want %q", i, e.Kind, traceRetry)
		}
	}

	empty, err := client.NodeTrace(1)
	if err != nil {
		t.Fatalf("trace dump of untraced node: %v", err)
	}
	if empty.Total != 0 || len(empty.Events) != 0 {
		t.Fatalf("untraced node dumped %d/%d events, want none", empty.Total, len(empty.Events))
	}
}

// TestNodeRegisterMetrics scrapes a node's registered metrics after live
// traffic and checks the key series appear with sane values, and that
// every counter and gauge Stats declares has its series.
func TestNodeRegisterMetrics(t *testing.T) {
	sizes := map[block.FileID]int64{0: 4096, 1: 4096}
	nodes, client := startCluster(t, 2, 64, sizes, nil)

	for f := 0; f < 2; f++ {
		for entry := 0; entry < 2; entry++ {
			if _, err := client.ReadVia(entry, block.FileID(f)); err != nil {
				t.Fatalf("read: %v", err)
			}
		}
	}

	reg := obs.NewRegistry()
	nodes[0].RegisterMetrics(reg)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("write prometheus: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE cc_accesses_total counter",
		"cc_accesses_total ",
		"cc_local_hits_total ",
		"cc_disk_reads_total ",
		"cc_store_blocks ",
		"# TYPE cc_rpc_latency_seconds histogram",
		`cc_rpc_latency_seconds_bucket{type="get_run",le="+Inf"}`,
		`cc_rpc_latency_seconds_count{type="get_run"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
	for _, f := range declaredFields() {
		name, kind, _ := strings.Cut(f.Tag.Get("metric"), ",")
		if kind == "" {
			kind = "counter"
		}
		if !strings.Contains(out, "# TYPE "+name+" "+kind+"\n") || !strings.Contains(out, "\n"+name+" ") {
			t.Errorf("metrics output has no %s series for Stats.%s", kind, f.Name)
		}
	}
	s := nodes[0].Stats()
	if s.Accesses == 0 {
		t.Fatal("node 0 recorded no accesses")
	}
}
