package obs

import (
	"strings"
	"sync/atomic"
	"testing"
)

type TestCounts struct {
	Reads       uint64 `metric:"t_reads_total" help:"reads served"`
	RPCTimeouts uint64 `metric:"t_rpc_timeouts_total" help:"round trips that timed out"`
}

type TestLevels struct {
	Depth int `metric:"t_depth,gauge" agg:"max" help:"deepest queue"`
}

type testStats struct {
	Node int // undeclared: not a metric
	TestCounts
	TestLevels
}

// TestDeclaredFields drives every derivation from one declaration: a live
// struct's registration and snapshot, a computed struct's registration,
// the sum with its max rule, the delta, and the name=value printout.
func TestDeclaredFields(t *testing.T) {
	var live TestCounts
	atomic.AddUint64(&live.Reads, 3)
	atomic.AddUint64(&live.RPCTimeouts, 1)
	if got := Snapshot(&live); got != (TestCounts{Reads: 3, RPCTimeouts: 1}) {
		t.Fatalf("Snapshot = %+v", got)
	}

	r := NewRegistry()
	Register(r, &live)
	RegisterFunc(r, func() TestLevels { return TestLevels{Depth: 4} })
	atomic.AddUint64(&live.Reads, 1)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := "# HELP t_reads_total reads served\n# TYPE t_reads_total counter\nt_reads_total 4\n" +
		"# HELP t_rpc_timeouts_total round trips that timed out\n# TYPE t_rpc_timeouts_total counter\nt_rpc_timeouts_total 1\n"
	if out := sb.String(); !strings.HasPrefix(out, want) ||
		!strings.Contains(out, "# TYPE t_depth gauge\nt_depth 4\n") {
		t.Fatalf("registry output:\n%s", out)
	}

	a := testStats{Node: 1, TestCounts: TestCounts{Reads: 5, RPCTimeouts: 2}, TestLevels: TestLevels{Depth: 7}}
	b := testStats{Node: 2, TestCounts: TestCounts{Reads: 10, RPCTimeouts: 4}, TestLevels: TestLevels{Depth: 3}}
	if got := Sum(a, b); got != (testStats{Node: 1, TestCounts: TestCounts{Reads: 15, RPCTimeouts: 6}, TestLevels: TestLevels{Depth: 7}}) {
		t.Fatalf("Sum = %+v", got)
	}
	if got := Delta(b, a); got != (testStats{Node: 2, TestCounts: TestCounts{Reads: 5, RPCTimeouts: 2}, TestLevels: TestLevels{Depth: 3}}) {
		t.Fatalf("Delta = %+v", got)
	}
	if got := Pairs(a); got != "reads=5 rpc_timeouts=2 depth=7" {
		t.Fatalf("Pairs = %q", got)
	}
	names := struct {
		LocalHits    uint64 `metric:"a"`
		InvalBacklog uint64 `metric:"b,gauge"`
		NotModified  int    `metric:"c"`
	}{1, 2, 3}
	if got := Pairs(names); got != "local_hits=1 inval_backlog=2 not_modified=3" {
		t.Fatalf("Pairs = %q", got)
	}
}
