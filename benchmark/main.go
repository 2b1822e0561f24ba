// Command benchmark is the repository's performance instrument: four
// cache-regime workloads against an in-process four-node loopback cluster,
// end-to-end metrics from an untraced window, per-layer metrics and a layer
// ladder from a traced one, and a check of every byte read. See README.md.
//
// One run of one workload, as the driver calls it:
//
//	benchmark -workload coop_read -seed 3 -seconds 15 -trace 0
//
// Without -workload it runs the suite: every workload untraced and traced,
// each in a fresh child process, and writes one record with -json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	jsonPath string
	outDir   string
	smoke    bool
	check    bool
}

func main() {
	var o options
	printManifest := false
	flag.StringVar(&o.workload, "workload", "", "run this one workload (default: the suite)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the trace and the write stream")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the measured window")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
	flag.StringVar(&o.jsonPath, "json", "", "write the machine-readable record to this file")
	flag.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "out"), "directory for span files and the suite's per-run records")
	flag.BoolVar(&o.smoke, "smoke", false, "1 s windows, half the warm-up and short ladder batches, for tests")
	flag.BoolVar(&o.check, "check", false, "run the suite twice and fail if an end-to-end metric differs by more than its bound")
	flag.BoolVar(&printManifest, "manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()
	if o.smoke {
		o.seconds = 1
	}

	var err error
	switch {
	case printManifest:
		var b []byte
		if b, err = manifest(); err == nil {
			_, err = os.Stdout.Write(b)
		}
	case o.workload != "":
		err = runSingle(o)
	default:
		err = runSuite(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// provenance says where a number came from.
type provenance struct {
	GitSHA     string `json:"git_sha"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Platform   string `json:"platform"`
	Time       string `json:"time"`
}

func newProvenance() provenance {
	sha := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		sha = strings.TrimSpace(string(out))
	}
	return provenance{
		GitSHA: sha, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH,
		Time: time.Now().UTC().Format(time.RFC3339),
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sizing is the workload's shape on this run: the two ratios the workloads
// exist to vary are Blocks against CapacityPerNode and against Aggregate.
type sizing struct {
	Files           int   `json:"files"`
	SetBytes        int64 `json:"set_bytes"`
	Blocks          int   `json:"blocks"`
	CapacityPerNode int   `json:"capacity_blocks_per_node"`
	Aggregate       int   `json:"capacity_blocks_aggregate"`
	Warmup          int   `json:"warmup_requests"`
	Clients         int   `json:"clients"`
}

// runRecord is one run of one workload.
type runRecord struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Trace      int                    `json:"trace"`
	Seconds    float64                `json:"window_seconds"`
	Provenance provenance             `json:"provenance"`
	Sizing     sizing                 `json:"sizing"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	FirstError string                 `json:"first_error,omitempty"`
	Samples    map[string]int         `json:"samples"`
	SetupS     []float64              `json:"setup_s_each,omitempty"`
	Metrics    map[string]metricValue `json:"metrics"`
}

// setupRepeats is how many times an untraced run sets up; set-up time is
// reported as their median. The driver's contract asks for this (set up
// several times in a run, report the median): it compares setup_s medians
// of two sets of runs, and a single set-up carries the noise of process
// start. It costs two extra set-ups per untraced run, which is why a run
// takes about 30 s of wall time for a 15 s window.
const setupRepeats = 3

// ladderBatch is the length of one ladder batch (five per rung).
const ladderBatch = 200 * time.Millisecond

// runOnce sets the workload up, measures it and checks it. started is when
// the work began, for the first set-up's time.
func runOnce(o options, started time.Time) (*runRecord, error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	rec := &runRecord{
		Workload: w.Name, Seed: o.seed, Trace: o.trace, Seconds: o.seconds,
		Provenance: newProvenance(), Samples: map[string]int{}, Metrics: map[string]metricValue{},
	}
	repeats, warmup := setupRepeats, w.Warmup
	if o.trace == 1 || o.smoke {
		repeats = 1
	}
	if o.smoke {
		warmup /= 2 // enough to land in the regime, which the smoke test asserts
	}
	var e *env
	for i := 0; i < repeats; i++ {
		if e != nil {
			e.Close()
		}
		began := time.Now()
		if i == 0 {
			began = started // the first set-up is timed from process start
		}
		var err error
		if e, err = setUp(w, o.seed, warmup); err != nil {
			return nil, err
		}
		rec.SetupS = append(rec.SetupS, time.Since(began).Seconds())
	}
	defer e.Close()
	rec.Sizing = sizing{
		Files: w.Files, SetBytes: e.tr.FileSetBytes(), CapacityPerNode: capacityBlocks,
		Aggregate: clusterNodes * capacityBlocks, Warmup: warmup, Clients: loadClients,
	}
	for _, f := range e.tr.Files {
		rec.Sizing.Blocks += int(geom.Count(f.Size))
	}

	e.cl.setSourceDelay(true)
	window := time.Duration(o.seconds * float64(time.Second))
	var values map[string]float64
	var defs []metricDef
	if o.trace == 0 {
		win := e.window(window, false)
		_, rec.Samples["stale_after_flush"] = e.converge()
		values, defs = endToEndMetrics(win, append([]float64(nil), rec.SetupS...)), endToEnd
		rec.Samples["read"], rec.Samples["write"] = win.Reads, win.Writes
		rec.Samples["slices"] = len(win.Slices)
		rec.Samples["read_beyond_p95_per_slice"] = win.Reads / len(win.Slices) / 20
	} else {
		t, err := e.tracedRun(window)
		if err != nil {
			return nil, err
		}
		values, defs = perLayerMetrics(w, t), perLayer
		rec.Samples["read"], rec.Samples["write"], rec.Samples["spans"] = t.win.Reads, t.win.Writes, len(t.spans)
		rec.Samples["stale_after_flush"] = t.stale
		batch := ladderBatch
		if o.smoke {
			batch /= 20
		}
		e.cl.setSourceDelay(false)
		rungs, err := runLadder(batch, e.check)
		if err != nil {
			return nil, err
		}
		for _, r := range rungs {
			values["ladder."+r.Name+"_us"] = r.US
			values["ladder."+r.Name+"_allocs"] = r.Allocs
		}
		if o.outDir != "" {
			if err := os.MkdirAll(o.outDir, 0o755); err != nil {
				return nil, err
			}
			if err := writeSpans(filepath.Join(o.outDir, w.Name+".spans.jsonl"), t.spans); err != nil {
				return nil, err
			}
		}
	}
	for _, d := range defs {
		rec.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	rec.Attempted, rec.Failed, rec.Correct = e.attempted, e.failed, e.failed == 0
	if e.firstErr != nil {
		rec.FirstError = e.firstErr.Error()
	}
	return rec, nil
}

// tracedRun measures the traced window on the warm cluster, with counter
// snapshots around it, between two short untraced reference windows. The
// tracing overhead is measured against the two references together, so a
// steady drift in throughput (coop_write slows as written blocks pile up)
// does not pass for overhead.
func (e *env) tracedRun(window time.Duration) (tracedRun, error) {
	var t tracedRun
	var err error
	t.ref = e.window(window/6, false)
	if t.before, err = e.snapshot(); err != nil {
		return t, err
	}
	stop, sampled := make(chan struct{}), make(chan uint64)
	go func() {
		var deepest uint64
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				deepest = max(deepest, e.maxBacklog())
			case <-stop:
				sampled <- deepest
				return
			}
		}
	}()
	t.win = e.window(window-2*(window/6), true)
	close(stop)
	t.backlogMax = <-sampled
	t.goroutines = runtime.NumGoroutine()
	if t.after, err = e.snapshot(); err != nil {
		return t, err
	}
	after := e.window(window/6, false)
	t.ref.Elapsed += after.Elapsed
	t.ref.Reads += after.Reads
	t.ref.Writes += after.Writes
	t.flush, t.stale = e.converge()
	t.spans = e.rec.take()
	return t, nil
}

// runSingle is the driver's entry: one workload, one kind of window. It
// prints the table for people and, as the last line, the result object.
func runSingle(o options) error {
	rec, err := runOnce(o, processStart)
	if err != nil {
		return err
	}
	printRun(rec)
	if o.jsonPath != "" {
		if err := writeJSON(o.jsonPath, rec); err != nil {
			return err
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rec.Correct {
		return fmt.Errorf("%s: %d of %d checked operations failed: %s", rec.Workload, rec.Failed, rec.Attempted, rec.FirstError)
	}
	return nil
}

// processStart approximates the start of the process: package variables
// are initialised before main runs.
var processStart = time.Now()

func printRun(rec *runRecord) {
	kind, defs := "end-to-end (tracing off)", endToEnd
	if rec.Trace == 1 {
		kind, defs = "per-layer (traced window)", perLayer
	}
	fmt.Printf("== %s  seed %d  %s  window %.1f s  reads %d  writes %d\n",
		rec.Workload, rec.Seed, kind, rec.Seconds, rec.Samples["read"], rec.Samples["write"])
	fmt.Printf("   files %d  blocks %d  cache/node %d  aggregate %d  attempted %d  failed %d  stale after flush %d\n",
		rec.Sizing.Files, rec.Sizing.Blocks, rec.Sizing.CapacityPerNode, rec.Sizing.Aggregate, rec.Attempted, rec.Failed,
		rec.Samples["stale_after_flush"])
	for _, d := range defs {
		fmt.Printf("%-34s %14.4f %s\n", d.Name, rec.Metrics[d.Name].Value, d.Unit)
	}
	if rec.Trace == 1 {
		printLadder(rec.Metrics)
	}
}

// printLadder prints the stacked table: each rung's cost and what it adds
// to the rung below.
func printLadder(m map[string]metricValue) {
	fmt.Printf("%-12s %10s %10s %10s %10s\n", "ladder rung", "us", "added us", "allocs", "added")
	var prevUS, prevAllocs float64
	for _, name := range ladderRungs {
		us, allocs := m["ladder."+name+"_us"].Value, m["ladder."+name+"_allocs"].Value
		fmt.Printf("%-12s %10.2f %+10.2f %10.1f %+10.1f\n", name, us, us-prevUS, allocs, allocs-prevAllocs)
		prevUS, prevAllocs = us, allocs
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
