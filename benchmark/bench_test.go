package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/middleware"
	"repro/internal/obs"
	"repro/internal/trace"
)

func TestPercentile(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.1, 1}, {0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "read", Start: 0, End: 100, ID: 1},
		{Name: "httpfront.serve", Start: 10, End: 30, ID: 2, Parent: 1},
		{Name: "httpfront.serve", Start: 20, End: 50, ID: 3, Parent: 1},  // overlaps the first: counted once
		{Name: "httpfront.serve", Start: 90, End: 120, ID: 4, Parent: 1}, // clipped to the parent
		{Name: "read", Start: 200, End: 260, ID: 5},                      // no children
		{Name: "source.read", Start: 210, End: 220, ID: 6},               // parent 0 belongs to nobody
	}
	got := selfTimes(spans, "read")
	if len(got) != 2 || got[0] != 50 || got[1] != 60 {
		t.Errorf("selfTimes = %v, want [50 60]", got)
	}
	if d := durations(spans, "httpfront.serve"); len(d) != 3 || d[0] != 20 || d[2] != 30 {
		t.Errorf("durations = %v", d)
	}
}

func TestQuantileUS(t *testing.T) {
	var h obs.Histogram
	for i := 0; i < 100; i++ {
		h.Observe(3 * time.Microsecond) // bucket (2µs, 4µs]
	}
	before := map[string]obs.HistogramData{"get_run": h.Snapshot()}
	for i := 0; i < 100; i++ {
		h.Observe(100 * time.Microsecond) // bucket (64µs, 128µs]
	}
	after := map[string]obs.HistogramData{"get_run": h.Snapshot()}
	d := histDelta(before, after, "get_run", "absent")
	if d.Count != 100 {
		t.Fatalf("delta count = %d, want 100", d.Count)
	}
	if q := quantileUS(d, 0.5); q <= 64 || q > 128 {
		t.Errorf("p50 of the delta = %v us, want inside (64, 128]", q)
	}
	if q := quantileUS(after["get_run"], 0.25); q <= 2 || q > 4 {
		t.Errorf("p25 of the whole = %v us, want inside (2, 4]", q)
	}
}

func smallTrace(seed int64) *trace.Trace {
	return trace.Preset{
		Name: "test", NumFiles: 200, FileSetBytes: 200 * 16 << 10, NumRequests: 4000,
		Alpha: 0.85, SizeSigma: 1.0, AvgReqKB: 12.8,
	}.Generate(seed, 1)
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	draw := func(seed int64, client int) []op {
		s := newOpStream(smallTrace(seed), seed, client, 100, 0.10)
		ops := make([]op, 5000) // longer than the trace: wraps
		for i := range ops {
			ops[i] = s.next()
		}
		return ops
	}
	for client := 0; client < loadClients; client++ {
		a, b, other := draw(7, client), draw(7, client), draw(8, client)
		writes, same := 0, 0
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("client %d op %d: %+v then %+v with the same seed", client, i, a[i], b[i])
			}
			if a[i] == other[i] {
				same++
			}
			if a[i].isWrite() {
				writes++
				if owner := blockOwner(block.ID{File: a[i].File, Idx: a[i].Idx}); owner != client {
					t.Fatalf("client %d writes block %d:%d owned by %d", client, a[i].File, a[i].Idx, owner)
				}
			}
		}
		if writes < 400 || writes > 600 {
			t.Errorf("client %d: %d writes in 5000 ops, want about 500", client, writes)
		}
		if same == len(a) {
			t.Errorf("client %d: seeds 7 and 8 gave the same schedule", client)
		}
	}
}

func TestTimedSource(t *testing.T) {
	sizes := map[block.FileID]int64{0: 20000, 1: 100}
	rec := newRecorder()
	src := newTimedSource(middleware.NewMemSource(geom, sizes), 5*time.Millisecond, rec)

	var source middleware.BlockSource = src
	lister, ok := source.(middleware.FileLister)
	if !ok || len(lister.Files()) != 2 {
		t.Fatalf("FileLister not forwarded (ok=%v)", ok)
	}
	if size, err := src.FileSize(0); err != nil || size != 20000 {
		t.Fatalf("FileSize = %d, %v", size, err)
	}

	began := time.Now()
	got, err := src.ReadBlock(0, 1)
	if err != nil || !bytes.Equal(got, middleware.SyntheticBlock(0, 1, geom.Size)) {
		t.Fatalf("ReadBlock: wrong content (err %v)", err)
	}
	if time.Since(began) >= 5*time.Millisecond {
		t.Errorf("read waited with the delay off")
	}
	if st := src.snapshot(); st.Reads != 1 || st.Distinct != 0 || len(rec.take()) != 0 {
		t.Errorf("untraced read left samples: %+v", st)
	}

	src.delayOn.Store(true)
	rec.on.Store(true)
	began = time.Now()
	for i := 0; i < 2; i++ {
		if _, err := src.ReadBlock(0, 2); err != nil {
			t.Fatal(err)
		}
	}
	if time.Since(began) < 10*time.Millisecond {
		t.Errorf("two delayed reads took %v, want at least 10ms", time.Since(began))
	}
	if err := src.WriteBlock(1, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	st := src.snapshot()
	if st.Reads != 3 || st.Writes != 1 || st.Distinct != 1 {
		t.Errorf("counters = %+v, want 3 reads, 1 write, 1 distinct", st)
	}
	if st.BusyNanos < int64(10*time.Millisecond) {
		t.Errorf("busy %v, want at least the two delays", time.Duration(st.BusyNanos))
	}
	spans := rec.take()
	if len(durations(spans, "source.read")) != 2 || len(durations(spans, "source.write")) != 1 {
		t.Errorf("spans = %+v", spans)
	}
}

func TestOracleAcceptsOnlyPristineOrWellFormedBlocks(t *testing.T) {
	tr := smallTrace(3)
	o := newOracle(tr)
	var f block.FileID = -1
	for _, file := range tr.Files {
		if geom.Count(file.Size) >= 3 {
			f = file.ID
			break
		}
	}
	if f < 0 {
		t.Fatal("no file of three blocks in the test trace")
	}
	size := tr.Size(f)
	var data []byte
	for idx := int32(0); idx < geom.Count(size); idx++ {
		data = append(data, middleware.SyntheticBlock(f, idx, blockLen(size, idx))...)
	}
	if !o.checkFile(f, data) {
		t.Fatal("pristine file rejected")
	}
	if o.checkFile(f, data[:len(data)-1]) {
		t.Error("short file accepted")
	}

	id := block.ID{File: f, Idx: 1}
	written := bytes.Clone(data)
	writePayload(written[geom.Size:2*geom.Size], id, 9)
	if !o.checkFile(f, written) {
		t.Error("file with one written block rejected")
	}
	if v, ok := o.blockVersion(f, 1, written); !ok || v != 9 {
		t.Errorf("blockVersion = %d, %v, want 9", v, ok)
	}
	if v, ok := o.blockVersion(f, 0, written); !ok || v != 0 {
		t.Errorf("pristine block: version %d, %v, want 0", v, ok)
	}

	torn := bytes.Clone(written)
	torn[geom.Size+100] ^= 1
	if o.checkFile(f, torn) {
		t.Error("torn block accepted")
	}
	misplaced := bytes.Clone(data)
	writePayload(misplaced[:geom.Size], id, 9) // block 1's payload at block 0
	if o.checkFile(f, misplaced) {
		t.Error("misplaced block accepted")
	}
}

// TestConvergeToleratesOnlyTheKnownRace drives converge on a live cluster.
// Writing a newer version straight into the sources, behind the caches'
// back, leaves the cluster as the fill-against-invalidate race does: the
// write is stored and every entry serves the version before it. One such
// block passes as stale; everything else fails.
func TestConvergeToleratesOnlyTheKnownRace(t *testing.T) {
	e, err := setUp(workload{Name: "test", Files: 200, SetBytes: 200 * 16 << 10}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	stream := e.workers[0].stream
	a, b, c := stream.ownedBlock(0, 0), stream.ownedBlock(60, 0), stream.ownedBlock(120, 0)
	if a.File == b.File || b.File == c.File || a.File == c.File {
		t.Fatalf("test blocks share a file: %v %v %v", a, b, c)
	}
	payload := func(id block.ID, version uint32) []byte {
		p := make([]byte, blockLen(e.tr.Size(id.File), id.Idx))
		writePayload(p, id, version)
		return p
	}
	write := func(id block.ID, version uint32) {
		t.Helper()
		if err := e.cl.client.Write(id.File, id.Idx, payload(id, version)); err != nil {
			t.Fatal(err)
		}
	}
	store := func(id block.ID, version uint32) { // the write reaches the sources and no cache
		t.Helper()
		for _, src := range e.cl.sources {
			if err := src.MemSource.WriteBlock(id.File, id.Idx, payload(id, version)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// expect runs converge and checks how many pairs it let pass as stale
	// and how many new failures it counted.
	expect := func(what string, wantStale, wantFailed int) {
		t.Helper()
		before := e.failed
		if _, stale := e.converge(); stale != wantStale || e.failed-before != wantFailed {
			t.Errorf("%s: %d stale, %d failed, want %d and %d (first error: %v)",
				what, stale, e.failed-before, wantStale, wantFailed, e.firstErr)
		}
	}

	write(a, 5)
	stream.versions[a] = 5
	expect("converged", 0, 0)

	stream.versions[a] = 6
	expect("acknowledged write that reached no source", 0, clusterNodes)
	store(a, 6)
	expect("one block one version behind its stored write", clusterNodes, 0)

	stream.versions[c] = 1 // cached pristine by the read-backs above
	for entry := range e.cl.nodes {
		if _, err := e.cl.control.ReadVia(entry, c.File); err != nil {
			t.Fatal(err)
		}
	}
	store(c, 1)
	expect("written block still pristine", clusterNodes, clusterNodes)
	delete(stream.versions, c)

	write(b, 1)
	stream.versions[b] = 2
	store(b, 2)
	expect("two blocks behind", 0, 2*clusterNodes)
	delete(stream.versions, b)

	store(a, 7)
	stream.versions[a] = 7
	expect("two versions behind", 0, clusterNodes)
	stream.versions[a] = 4
	expect("version from the future", 0, clusterNodes)
}

// TestHTTPConnSurvivesAnError: a reply that is not a 200 leaves the
// connection half read, so the next GET must go out on a new one; header
// names match whatever their case.
func TestHTTPConnSurvivesAnError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != filePath(2) {
			http.Error(w, "no such file, and a body the client does not read", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Length", "5")
		_, _ = io.WriteString(w, "hello") // the client's read reports a failure
	}))
	defer srv.Close()
	c := dialHTTP(srv.Listener.Addr().String())
	defer c.Close()
	if _, err := c.get(1, 0); err == nil {
		t.Fatal("GET of a missing file succeeded")
	}
	for i := 0; i < 2; i++ { // the second reuses the redialled connection
		if body, err := c.get(2, 7); err != nil || string(body) != "hello" {
			t.Fatalf("GET %d after an error: %q, %v", i, body, err)
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		buf := make([]byte, 4096)
		// Errors here surface as the client's failed get.
		_, _ = nc.Read(buf)
		_, _ = io.WriteString(nc, "HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nhi")
	}()
	lower := dialHTTP(ln.Addr().String())
	defer lower.Close()
	if body, err := lower.get(1, 0); err != nil || string(body) != "hi" {
		t.Fatalf("lower-case content-length: %q, %v", body, err)
	}
}

// TestManifest holds BENCHMARK.json to the tables it is generated from and
// to the limits the driver enforces before a single run.
func TestManifest(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile("../BENCHMARK.json"); err != nil {
		t.Logf("no BENCHMARK.json beside the benchmark: %v", err)
	} else if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run . -manifest`")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		use(d.Name)
		hasSetup = hasSetup || d == metricDef{Name: "setup_s", Unit: "s", Better: "lower", Bound: d.Bound}
		if d.Bound <= 0 || d.Bound > 0.25 || !unit.MatchString(d.Unit) {
			t.Errorf("%s: bound %v, unit %q", d.Name, d.Bound, d.Unit)
		}
	}
	for _, d := range perLayer {
		use(d.Name)
		if d.Bound != 0 || !unit.MatchString(d.Unit) {
			t.Errorf("%s: bound %v, unit %q", d.Name, d.Bound, d.Unit)
		}
	}
	if !hasSetup || len(perLayer) > 128 || len(want) > 64<<10 {
		t.Errorf("setup_s present %v, %d per-layer metrics, %d bytes", hasSetup, len(perLayer), len(want))
	}
}

// TestSmoke runs every workload once, traced, with 1 s windows, and checks
// that nothing fails verification and that each workload lands in the
// regime it exists for.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	regime := map[string]func(m map[string]metricValue) bool{
		"http_get":   func(m map[string]metricValue) bool { return m["node.local_hit_ratio"].Value > 0.99 },
		"coop_read":  func(m map[string]metricValue) bool { return m["node.remote_hit_ratio"].Value > 0.3 },
		"coop_write": func(m map[string]metricValue) bool { return m["inval.invalidations_per_write"].Value > 0 },
		"disk_bound": func(m map[string]metricValue) bool { return m["node.disk_ratio"].Value > 0.2 },
	}
	out := t.TempDir()
	for _, w := range workloads {
		rec, err := runOnce(options{workload: w.Name, seed: 1, seconds: 1, trace: 1, smoke: true, outDir: out}, time.Now())
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %s", w.Name, rec.Failed, rec.Attempted, rec.FirstError)
		}
		if !regime[w.Name](rec.Metrics) {
			t.Errorf("%s is outside its regime: local %.3f remote %.3f disk %.3f invalidations/write %.2f", w.Name,
				rec.Metrics["node.local_hit_ratio"].Value, rec.Metrics["node.remote_hit_ratio"].Value,
				rec.Metrics["node.disk_ratio"].Value, rec.Metrics["inval.invalidations_per_write"].Value)
		}
		if w.WriteShare > 0 && rec.Samples["write"] == 0 {
			t.Errorf("%s issued no writes", w.Name)
		}
		for _, d := range perLayer {
			if _, ok := rec.Metrics[d.Name]; !ok {
				t.Errorf("%s: metric %s missing", w.Name, d.Name)
			}
		}
		if st, err := os.Stat(out + "/" + w.Name + ".spans.jsonl"); err != nil || st.Size() == 0 {
			t.Errorf("%s: no span file: %v", w.Name, err)
		}
	}
}
