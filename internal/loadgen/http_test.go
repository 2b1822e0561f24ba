package loadgen

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/trace"
)

func httpTestTrace() *trace.Trace {
	tr := &trace.Trace{Name: "http-test"}
	for f := block.FileID(0); f < 4; f++ {
		tr.Files = append(tr.Files, trace.File{ID: f, Size: int64(100 * (f + 1))})
	}
	for i := 0; i < 200; i++ {
		tr.Requests = append(tr.Requests, block.FileID(i%4))
	}
	return tr
}

func TestReplayHTTP(t *testing.T) {
	tr := httpTestTrace()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var f int
		if _, err := fmt.Sscanf(r.URL.Path, "/f/%d", &f); err != nil || f < 0 || f > 3 {
			http.NotFound(w, r)
			return
		}
		w.Write([]byte(strings.Repeat("x", int(tr.Files[f].Size)))) //nolint:errcheck
	}))
	defer srv.Close()

	res, err := ReplayHTTP(srv.URL, tr, PathForFile, HTTPConfig{
		Connections: 4,
		WarmupFrac:  0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d", res.Errors)
	}
	if res.Requests != 150 { // 200 total - 50 warmup
		t.Fatalf("measured requests = %d, want 150", res.Requests)
	}
	if res.Bytes == 0 || res.Throughput <= 0 || res.P99 <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	// Keep-alive reuse: 4 closed-loop workers need at most a handful of
	// connections, never one per request.
	if res.ConnsOpened == 0 || res.ConnsOpened > 16 {
		t.Fatalf("conns opened = %d, want a few keep-alive connections", res.ConnsOpened)
	}
}

func TestReplayHTTPErrorStatus(t *testing.T) {
	tr := httpTestTrace()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusBadGateway)
	}))
	defer srv.Close()
	res, err := ReplayHTTP(srv.URL, tr, PathForFile, HTTPConfig{Connections: 2})
	if err == nil {
		t.Fatal("expected error for 502 responses")
	}
	if res.Errors == 0 {
		t.Fatal("error count not recorded")
	}
}
