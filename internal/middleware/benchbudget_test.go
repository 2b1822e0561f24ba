package middleware

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchAllocBudget is CI's allocation regression gate for the wire hot
// path: it runs the headline micro-benchmarks in-process and fails if
// allocs/op exceeds the checked-in budget (testdata/alloc_budget.json). The
// budgets carry a little headroom over the measured values, so the gate trips
// on a real regression (a lost pooled buffer, a new per-block allocation) and
// not on runtime noise. A benchmark that fails reports N == 0 and 0 allocs/op;
// the gate fails it instead of passing it. Gated behind CC_BENCH_BUDGET=1
// because it runs full benchmarks — too slow for every local `go test`.
//
// To update the budget after an intentional change, re-measure with
// `go test -run '^$' -bench 'ConnRoundTrip|NodeReadFile|StoreGetParallel|ServeRun|ServeRead|ClientReadFile$|WriteBlock' ./internal/middleware/`
// and edit testdata/alloc_budget.json.
func TestBenchAllocBudget(t *testing.T) {
	if os.Getenv("CC_BENCH_BUDGET") != "1" {
		t.Skip("set CC_BENCH_BUDGET=1 to run the allocation budget gate")
	}
	raw, err := os.ReadFile("testdata/alloc_budget.json")
	if err != nil {
		t.Fatal(err)
	}
	var budget map[string]int64
	if err := json.Unmarshal(raw, &budget); err != nil {
		t.Fatalf("parse alloc budget: %v", err)
	}
	benches := map[string]func(*testing.B){
		"BenchmarkConnRoundTrip":        BenchmarkConnRoundTrip,
		"BenchmarkNodeReadFile":         BenchmarkNodeReadFile,
		"BenchmarkNodeReadFileParallel": BenchmarkNodeReadFileParallel,
		"BenchmarkStoreGetParallel":     BenchmarkStoreGetParallel,
		"BenchmarkServeRun":             BenchmarkServeRun,
		"BenchmarkServeRead":            BenchmarkServeRead,
		"BenchmarkClientReadFile":       BenchmarkClientReadFile,
		"BenchmarkWriteBlock":           BenchmarkWriteBlock,
	}
	for name, fn := range benches {
		want, ok := budget[name]
		if !ok {
			t.Fatalf("no budget entry for %s", name)
		}
		r := testing.Benchmark(fn)
		if r.N == 0 {
			t.Errorf("%s failed: no iteration ran, so it has no allocs/op to check", name)
			continue
		}
		if got := r.AllocsPerOp(); got > want {
			t.Errorf("%s: %d allocs/op exceeds budget %d (%v/op, %d B/op)",
				name, got, want, r.NsPerOp(), r.AllocedBytesPerOp())
		} else {
			t.Logf("%s: %d allocs/op within budget %d (%d ns/op)", name, got, want, r.NsPerOp())
		}
	}
}
