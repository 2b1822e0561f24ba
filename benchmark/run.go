package main

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/block"
	"repro/internal/trace"
)

// env is one workload set up and warm: the generated trace, the oracle that
// checks every byte read, the cluster, and the closed-loop clients.
type env struct {
	w       workload
	tr      *trace.Trace
	oracle  *oracle
	rec     *recorder
	cl      *cluster
	workers []*worker

	// attempted and failed count every checked operation of the process:
	// warm-up, windows, convergence and ladder reads.
	mu        sync.Mutex
	attempted int
	failed    int
	firstErr  error
}

// worker is one closed-loop client: it sends its next operation only after
// the previous one completed.
type worker struct {
	env     *env
	stream  *opStream
	http    *httpConn // HTTP workloads only
	payload []byte
	samples []sample // current window
}

// sample is one completed operation: when it ended and how long it took,
// in nanoseconds on the recorder's clock.
type sample struct {
	end, lat int64
	write    bool
}

// setUp generates the inputs from the seed, starts the cluster and replays
// the first warmup requests of the trace. Everything up to its return is
// set-up time.
func setUp(w workload, seed int64, warmup int) (*env, error) {
	e := &env{w: w, rec: newRecorder()}
	e.tr = w.generateTrace(seed)
	e.oracle = newOracle(e.tr)
	capacity := make([]int, clusterNodes)
	for i := range capacity {
		capacity[i] = capacityBlocks
	}
	var err error
	if e.cl, err = startCluster(e.tr, capacity, w.SourceDelay, e.rec); err != nil {
		return nil, err
	}
	for c := 0; c < loadClients; c++ {
		wk := &worker{env: e, payload: make([]byte, geom.Size)}
		if w.HTTP {
			wk.http = dialHTTP(e.cl.httpAt)
		}
		e.workers = append(e.workers, wk)
	}
	// Warm-up replays the head of the trace read-only; the measured
	// streams start where it ends.
	e.eachWorker(func(c int, wk *worker) {
		wk.stream = newOpStream(e.tr, seed, c, 0, 0)
		for wk.stream.pos < warmup {
			wk.do(wk.stream.next(), false)
		}
		wk.stream = newOpStream(e.tr, seed, c, warmup, w.WriteShare)
	})
	if e.failed > 0 {
		err := fmt.Errorf("warm-up: %d of %d operations failed: %w", e.failed, e.attempted, e.firstErr)
		e.Close()
		return nil, err
	}
	return e, nil
}

func (e *env) Close() {
	for _, wk := range e.workers {
		if wk.http != nil {
			wk.http.Close()
		}
	}
	e.cl.Close()
}

// eachWorker runs fn once per client, concurrently, and waits for all.
func (e *env) eachWorker(fn func(c int, wk *worker)) {
	var wg sync.WaitGroup
	for c, wk := range e.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c, wk)
		}()
	}
	wg.Wait()
}

// check counts one verified operation.
func (e *env) check(err error) {
	e.mu.Lock()
	e.attempted++
	if err != nil {
		e.failed++
		if e.firstErr == nil {
			e.firstErr = err
		}
	}
	e.mu.Unlock()
}

var errContent = errors.New("content mismatch")

// do performs one operation, verifies it, and records its latency. The
// clock stops when the reply is complete, before verification. A traced
// operation also leaves a root span.
func (wk *worker) do(o op, traced bool) {
	e := wk.env
	root := span{Name: "read"}
	if traced {
		root.ID = e.rec.newID()
	}
	var err error
	if o.isWrite() {
		root.Name = "write"
		p := wk.payload[:blockLen(e.tr.Size(o.File), o.Idx)]
		writePayload(p, block.ID{File: o.File, Idx: o.Idx}, o.Version)
		root.Start = e.rec.now() // building the payload is the generator's work
		err = e.cl.client.Write(o.File, o.Idx, p)
		root.End = e.rec.now()
	} else {
		var data []byte
		root.Start = e.rec.now()
		if wk.http != nil {
			data, err = wk.http.get(o.File, root.ID)
		} else {
			data, err = e.cl.client.Read(o.File)
		}
		root.End = e.rec.now()
		if err == nil && !e.oracle.checkFile(o.File, data) {
			err = fmt.Errorf("read file %d: %w", o.File, errContent)
		}
	}
	wk.samples = append(wk.samples, sample{end: root.End, lat: root.End - root.Start, write: o.isWrite()})
	if traced {
		e.rec.add(root)
	}
	e.check(err)
}

// windowSlices is how many equal slices a window is cut into. The
// end-to-end metrics are medians over the slices, so a burst of
// interference from outside the process spoils one slice and not the run.
const windowSlices = 15

// windowResult is what one measured window saw from outside.
type windowResult struct {
	Elapsed           time.Duration
	Reads, Writes     int
	ReadLat, WriteLat []float64 // nanoseconds, whole window
	CPU, UserCPU      time.Duration
	Slices            []sliceResult
}

// sliceResult is one slice of a window.
type sliceResult struct {
	Seconds          float64
	Ops              int
	ReadP50, ReadP95 float64 // nanoseconds
	CPU              time.Duration
	RSSBytes         int64
}

func (r windowResult) ops() int { return r.Reads + r.Writes }

func (r windowResult) reqPerSec() float64 { return float64(r.ops()) / r.Elapsed.Seconds() }

// mark is the process's state at a slice boundary.
type mark struct {
	at        int64 // recorder clock
	user, sys time.Duration
	rss       int64
}

func (e *env) mark() mark {
	user, sys := cpuTimes()
	return mark{at: e.rec.now(), user: user, sys: sys, rss: rssBytes()}
}

// window runs the closed loop for d and reports what it saw. With traced
// set, the recorder is on for exactly the window.
func (e *env) window(d time.Duration, traced bool) windowResult {
	for _, wk := range e.workers {
		wk.samples = wk.samples[:0]
	}
	e.rec.on.Store(traced)
	marks := []mark{e.mark()}
	start := time.Now()
	deadline := start.Add(d)
	marked := make(chan struct{})
	go func() { // marks the inner slice boundaries; done before the deadline
		defer close(marked)
		for i := 1; i < windowSlices; i++ {
			time.Sleep(time.Until(start.Add(time.Duration(i) * d / windowSlices)))
			marks = append(marks, e.mark())
		}
	}()
	e.eachWorker(func(_ int, wk *worker) {
		for time.Now().Before(deadline) {
			wk.do(wk.stream.next(), traced)
		}
	})
	<-marked
	last := e.mark()
	e.rec.on.Store(false)
	marks = append(marks, last)

	first := marks[0]
	res := windowResult{
		Elapsed: time.Duration(last.at - first.at),
		CPU:     (last.user - first.user) + (last.sys - first.sys), UserCPU: last.user - first.user,
	}
	perSlice := make([][]float64, len(marks)-1)
	res.Slices = make([]sliceResult, len(marks)-1)
	for _, wk := range e.workers {
		for _, sm := range wk.samples {
			i := sort.Search(len(marks)-1, func(i int) bool { return marks[i+1].at > sm.end })
			i = min(i, len(marks)-2) // operations in flight at the deadline end just after it
			res.Slices[i].Ops++
			if sm.write {
				res.Writes++
				res.WriteLat = append(res.WriteLat, float64(sm.lat))
			} else {
				res.Reads++
				res.ReadLat = append(res.ReadLat, float64(sm.lat))
				perSlice[i] = append(perSlice[i], float64(sm.lat))
			}
		}
	}
	for i := range res.Slices {
		sl, from, to := &res.Slices[i], marks[i], marks[i+1]
		sl.Seconds = float64(to.at-from.at) / 1e9
		sl.ReadP50, sl.ReadP95 = median(perSlice[i]), percentile(perSlice[i], 0.95)
		sl.CPU = (to.user - from.user) + (to.sys - from.sys)
		sl.RSSBytes = to.rss
	}
	return res
}

// converge flushes the invalidation bus on every node and then reads every
// file the windows wrote through each entry node: each written block must
// hold the last acknowledged version. It reports how long the flush took
// and how many (block, entry) pairs it let pass as stale.
//
// Stale is exactly what seed code was seen to do, about once in 500 000
// writes (the fill-against-invalidate race of ROADMAP item 4): one block,
// whose last write is in the source, served one version behind. It is
// counted and reported, so that fixing the race shows, and not failed,
// because a check that fails one run in forty on unchanged code makes every
// other number unusable. Anything more is a failure: a second stale block,
// a block more than one version behind or back to pristine, a write missing
// from the source, a version from the future, a malformed block, a failed
// read, a bus that does not drain.
func (e *env) converge() (flush time.Duration, stale int) {
	start := time.Now()
	for i, n := range e.cl.nodes {
		if !n.FlushInval(10 * time.Second) {
			e.check(fmt.Errorf("node %d: invalidation bus did not drain", i))
		}
	}
	flush = time.Since(start)
	want := make(map[block.FileID]map[int32]uint32)
	for _, wk := range e.workers {
		for id, v := range wk.stream.versions {
			if want[id.File] == nil {
				want[id.File] = make(map[int32]uint32)
			}
			want[id.File][id.Idx] = v
		}
	}
	var behind []error // one per (block, entry) pair that may pass as stale
	behindBlocks := make(map[block.ID]bool)
	for f, blocks := range want {
		for entry := range e.cl.nodes {
			data, err := e.cl.control.ReadVia(entry, f)
			if err == nil && int64(len(data)) != e.tr.Size(f) {
				err = fmt.Errorf("read file %d via node %d: %d bytes: %w", f, entry, len(data), errContent)
			}
			for idx, v := range blocks {
				if err != nil {
					e.check(err)
					continue
				}
				got, ok := e.oracle.blockVersion(f, idx, data)
				if ok && got == v {
					e.check(nil)
					continue
				}
				id := block.ID{File: f, Idx: idx}
				stored := e.storedVersion(id)
				berr := fmt.Errorf("block %d:%d via node %d: version %d (well-formed %v), last written %d, source holds %d: %w",
					f, idx, entry, got, ok, v, stored, errContent)
				if ok && got >= 1 && got+1 == v && stored == v {
					behind = append(behind, berr)
					behindBlocks[id] = true
				} else {
					e.check(berr)
				}
			}
		}
	}
	if len(behindBlocks) > 1 {
		for _, berr := range behind {
			e.check(berr)
		}
		return flush, 0
	}
	for range behind {
		e.check(nil)
	}
	return flush, len(behind)
}

// storedVersion reports the newest version of block id that any node's
// source holds: where write-through left the block, whatever the caches
// say. 0 is pristine or malformed.
func (e *env) storedVersion(id block.ID) uint32 {
	var newest uint32
	for _, src := range e.cl.sources {
		if b, err := src.MemSource.ReadBlock(id.File, id.Idx); err == nil {
			if v, ok := parsePayload(id, b); ok {
				newest = max(newest, v)
			}
		}
	}
	return newest
}

// cpuTimes reports the process's user and system CPU time so far.
func cpuTimes() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// rssBytes reads the resident set size from /proc/self/status.
func rssBytes() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10
		}
	}
	return 0
}
