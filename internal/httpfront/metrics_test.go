package httpfront

import (
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/middleware"
	"repro/internal/obs"
)

// metricSurface renders a traced node's, its client's and a gateway's
// registrations on one registry and returns the sorted # HELP and # TYPE
// lines: every series name, type and help string, and nothing that moves
// with traffic.
func metricSurface(t *testing.T) string {
	t.Helper()
	sizes := map[block.FileID]int64{0: 2500}
	nd, err := middleware.Start(middleware.Config{
		CapacityBlocks: 64, Policy: core.PolicyMaster, Geometry: testGeom,
		Source: middleware.NewMemSource(testGeom, sizes), Tracer: obs.NewTracer(16),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	nd.SetAddrs([]string{nd.Addr()})
	client, err := middleware.DialCluster([]string{nd.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	gw := New(client, NewPathTable(map[string]block.FileID{"/f": 0}))

	reg := obs.NewRegistry()
	nd.RegisterMetrics(reg)
	client.RegisterMetrics(reg)
	gw.RegisterMetrics(reg)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, l := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(l, "# ") {
			lines = append(lines, l)
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// TestMetricSurface pins the Prometheus surface byte for byte against
// testdata/metric_surface.golden: a renamed or dropped series, a changed
// type or an edited help string fails here.
func TestMetricSurface(t *testing.T) {
	want, err := os.ReadFile("testdata/metric_surface.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := metricSurface(t); got != string(want) {
		t.Fatalf("metric surface changed:\n--- got\n%s--- want\n%s", got, want)
	}
}
