package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"repro/internal/block"
	"repro/internal/loadgen"
	"repro/internal/middleware"
	"repro/internal/trace"
)

// The scenario matrix pins the protocol's counter signatures: each named
// scenario builds a cluster sized to force exactly one cache regime, replays
// it, and checks the counters that regime must (and must not) produce. They
// run in CI as a smoke matrix — a change that silently shifts traffic between
// the local/remote/disk paths or stops invalidating fails its scenario even
// while every unit test still passes.

// scenarioNames fixes the run order of -scenario all.
var scenarioNames = []string{
	"full_hit", "partial_hit", "cold_miss", "write_invalidate", "flash_crowd", "node_drain",
}

var scenarios = map[string]func(requests, concurrency int, seed int64) error{
	"full_hit":         scenarioFullHit,
	"partial_hit":      scenarioPartialHit,
	"cold_miss":        scenarioColdMiss,
	"write_invalidate": scenarioWriteInvalidate,
	"flash_crowd":      scenarioFlashCrowd,
	"node_drain":       scenarioNodeDrain,
}

// runScenarios runs one named scenario, or all of them in order.
func runScenarios(name string, requests, concurrency int, seed int64) error {
	names := []string{name}
	if name == "all" {
		names = scenarioNames
	}
	for _, nm := range names {
		fn, ok := scenarios[nm]
		if !ok {
			return fmt.Errorf("unknown scenario %q (have %v)", nm, scenarioNames)
		}
		if err := fn(requests, concurrency, seed); err != nil {
			return fmt.Errorf("scenario %s: %w", nm, err)
		}
		log.Printf("scenario %-17s PASS", nm)
	}
	return nil
}

// scenarioCluster is the common 4-node in-process setup of the matrix: the
// default Config, homes on the consistent-hash ring (node_drain picks the
// drained node's homed files by RingHome).
func scenarioCluster(capacity, files int) (map[block.FileID]int64, []*middleware.Node, *middleware.Client, func(), error) {
	sizes := fileSizes(files, 16384)
	nodes, addrs, shutdown, err := startCluster(4, capacity, sizes, nil)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	client, err := middleware.DialClusterConfig(addrs, middleware.ClientConfig{
		RPCTimeout: 2 * time.Second, Retries: 3,
	})
	if err != nil {
		shutdown()
		return nil, nil, nil, nil, err
	}
	return sizes, nodes, client, func() { client.Close(); shutdown() }, nil
}

// scenarioFullHit: aggregate capacity holds the whole working set. After a
// priming replay, a second identical replay must be answered entirely from
// cluster memory — its disk-read delta must be zero.
func scenarioFullHit(requests, concurrency int, seed int64) error {
	const files = 40
	sizes, _, client, done, err := scenarioCluster(4096, files)
	if err != nil {
		return err
	}
	defer done()
	tr := buildTrace(files, sizes, requests, 0.85, 16384, seed)
	if _, err := loadgen.Replay(client, tr, loadgen.Config{Concurrency: concurrency, WarmupFrac: 0.01}); err != nil {
		return err
	}
	warm, err := client.ClusterStats()
	if err != nil {
		return err
	}
	res, err := loadgen.Replay(client, tr, loadgen.Config{Concurrency: concurrency, WarmupFrac: 0.01})
	if err != nil {
		return err
	}
	if res.Errors != 0 {
		return fmt.Errorf("%d errors", res.Errors)
	}
	st := res.Cluster
	if d := st.DiskReads - warm.DiskReads; d != 0 {
		return fmt.Errorf("signature broken: %d disk reads on a fully warm cluster", d)
	}
	if hits := st.LocalHits + st.RemoteHits - warm.LocalHits - warm.RemoteHits; hits == 0 {
		return fmt.Errorf("signature broken: no memory hits measured")
	}
	return nil
}

// scenarioPartialHit: aggregate capacity holds roughly half the working set,
// so a replay must exercise all three resolution paths at once — local hits,
// remote (peer) hits, and disk reads.
func scenarioPartialHit(requests, concurrency int, seed int64) error {
	const files = 200
	sizes, _, client, done, err := scenarioCluster(64, files)
	if err != nil {
		return err
	}
	defer done()
	tr := buildTrace(files, sizes, requests, 0.85, 16384, seed)
	res, err := loadgen.Replay(client, tr, loadgen.Config{Concurrency: concurrency})
	if err != nil {
		return err
	}
	if res.Errors != 0 {
		return fmt.Errorf("%d errors", res.Errors)
	}
	st := res.Cluster
	if st.LocalHits == 0 || st.RemoteHits == 0 || st.DiskReads == 0 {
		return fmt.Errorf("signature broken: local=%d remote=%d disk=%d (want all three paths active)",
			st.LocalHits, st.RemoteHits, st.DiskReads)
	}
	if sum := st.LocalHits + st.RemoteHits + st.DiskReads; sum > st.Accesses {
		return fmt.Errorf("counter identity broken: %d resolutions for %d accesses", sum, st.Accesses)
	}
	return nil
}

// scenarioColdMiss: every file is requested exactly once against an empty
// cluster — every block access must be a disk read, and none may be served
// from local or peer memory.
func scenarioColdMiss(requests, concurrency int, seed int64) error {
	files := requests
	if files > 300 {
		files = 300
	}
	sizes, _, client, done, err := scenarioCluster(4096, files)
	if err != nil {
		return err
	}
	defer done()
	tr := &trace.Trace{Name: "cold"}
	for f := 0; f < files; f++ {
		tr.Files = append(tr.Files, trace.File{ID: block.FileID(f), Size: sizes[block.FileID(f)]})
		tr.Requests = append(tr.Requests, block.FileID(f))
	}
	res, err := loadgen.Replay(client, tr, loadgen.Config{Concurrency: concurrency, WarmupFrac: 0.01})
	if err != nil {
		return err
	}
	if res.Errors != 0 {
		return fmt.Errorf("%d errors", res.Errors)
	}
	st := res.Cluster
	if st.LocalHits != 0 || st.RemoteHits != 0 {
		return fmt.Errorf("signature broken: %d local + %d remote hits on an all-cold stream",
			st.LocalHits, st.RemoteHits)
	}
	if st.DiskReads != st.Accesses || st.DiskReads == 0 {
		return fmt.Errorf("signature broken: %d disk reads for %d accesses (want equal, nonzero)",
			st.DiskReads, st.Accesses)
	}
	return nil
}

// scenarioWriteInvalidate: a write-heavy replay over the invalidation bus.
// Writes must flow, every write must invalidate cluster-wide (asynchronously:
// the backlog must drain to zero and the totals must reach one invalidation
// per node per write), and deliveries must actually batch.
func scenarioWriteInvalidate(requests, concurrency int, seed int64) error {
	const files = 100
	sizes, _, client, done, err := scenarioCluster(512, files)
	if err != nil {
		return err
	}
	defer done()
	tr := buildTrace(files, sizes, requests, 0.85, 16384, seed)
	res, err := loadgen.Replay(client, tr, loadgen.Config{Concurrency: concurrency, WriteFrac: 0.3})
	if err != nil {
		return err
	}
	if res.Errors != 0 {
		return fmt.Errorf("%d errors", res.Errors)
	}
	if res.Writes == 0 {
		return fmt.Errorf("no writes measured at WriteFrac 0.3")
	}
	deadline := time.Now().Add(15 * time.Second)
	var st middleware.Stats
	for {
		if st, err = client.ClusterStats(); err != nil {
			return err
		}
		if st.InvalBacklog == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("invalidation backlog %d never drained", st.InvalBacklog)
		}
		time.Sleep(time.Millisecond)
	}
	// One write = one sequenced record applied at every node (the writer
	// locally, the peers via the bus). Warmup writes count too, so compare
	// against the cluster-wide write total.
	if st.Invalidations < st.Writes {
		return fmt.Errorf("signature broken: %d invalidations for %d writes", st.Invalidations, st.Writes)
	}
	if st.InvalBatched == 0 {
		return fmt.Errorf("signature broken: bus delivered no batched invalidations")
	}
	if st.InvalidateSkips != 0 {
		return fmt.Errorf("signature broken: %d invalidate skips on a healthy cluster", st.InvalidateSkips)
	}
	return nil
}

// scenarioFlashCrowd: a non-stationary trace whose scheduled flash crowd
// moves most of the request mass onto 24 cold files mid-replay, with 10 %
// writes, on the default Config. The set (685 blocks) fits the
// aggregate cache (1 024) but not one node's, so the demand copies of §3
// must absorb the crowd: peers serve remote hits, the bus delivers every
// invalidation, the source is read little more than once per block, and
// every byte read back through every entry is the block's pristine content
// or one whole write. Every check is a counter or a byte comparison; none
// reads a clock.
func scenarioFlashCrowd(requests, concurrency int, seed int64) error {
	const files = 300
	sizes, nodes, client, done, err := scenarioCluster(256, files)
	if err != nil {
		return err
	}
	defer done()
	spec := trace.FlashSpec{At: 0.35, Dur: 0.5, Files: 24, Boost: 0.7}
	tr := buildFlashTrace(files, sizes, requests, 0.9, 16384, seed, spec)
	res, err := loadgen.Replay(client, tr, loadgen.Config{Concurrency: concurrency, WriteFrac: 0.1})
	if err != nil {
		return err
	}
	if res.Errors != 0 {
		return fmt.Errorf("%d errors", res.Errors)
	}
	st := res.Cluster
	if st.RemoteHits == 0 {
		return fmt.Errorf("signature broken: no remote hits, the crowd was never served from a peer's memory")
	}
	if st.InvalidateSkips != 0 {
		return fmt.Errorf("signature broken: %d invalidate skips on a healthy cluster", st.InvalidateSkips)
	}
	// The ceiling: the source reads each block about once however long the
	// crowd lasts, because a block that is in some memory is fetched from
	// there. 20 runs at -requests 2000 -concurrency 8 read 558 to 581 blocks
	// (0.28 to 0.29 per request) of the set's 685, two runs at 20 000
	// requests 687 and 719; a quarter over the set leaves margin over both.
	var blocks uint64
	for _, size := range sizes {
		blocks += uint64(block.DefaultGeometry.Count(size))
	}
	if limit := blocks + blocks/4; st.DiskReads > limit {
		return fmt.Errorf("signature broken: %d disk reads (%.2f per request) for a set of %d blocks (ceiling %d): the hit ratio collapsed under the crowd",
			st.DiskReads, float64(st.DiskReads)/float64(len(tr.Requests)), blocks, limit)
	}
	if err := flushAll(nodes); err != nil {
		return err
	}
	return verifyFiles(client, sizes, len(nodes))
}

// flushAll waits until every node's outgoing invalidations are acknowledged.
func flushAll(nodes []*middleware.Node) error {
	for i, n := range nodes {
		if !n.FlushInval(10 * time.Second) {
			return fmt.Errorf("node %d bus never drained", i)
		}
	}
	return nil
}

// verifyFiles reads every file through every entry and checks each block is
// its pristine synthetic content or one writeRandomBlock pattern (a single
// repeated byte).
func verifyFiles(client *middleware.Client, sizes map[block.FileID]int64, entries int) error {
	bs := block.DefaultGeometry.Size
	for f, size := range sizes {
		for e := 0; e < entries; e++ {
			data, err := client.ReadVia(e, f)
			if err != nil {
				return fmt.Errorf("verify file %d via node %d: %w", f, e, err)
			}
			if int64(len(data)) != size {
				return fmt.Errorf("file %d via node %d is %d bytes, want %d", f, e, len(data), size)
			}
			for idx := 0; idx*bs < len(data); idx++ {
				blk := data[idx*bs : min((idx+1)*bs, len(data))]
				if bytes.Count(blk, blk[:1]) != len(blk) &&
					!bytes.Equal(blk, middleware.SyntheticBlock(f, int32(idx), len(blk))) {
					return fmt.Errorf("file %d block %d via node %d is neither pristine nor one whole write", f, idx, e)
				}
			}
		}
	}
	return nil
}

// buildFlashTrace is buildTrace with the flash-crowd schedule applied: same
// file manifest, same base skew, one scheduled popularity shift.
func buildFlashTrace(files int, sizes map[block.FileID]int64, requests int, zipf float64, avg, seed int64, spec trace.FlashSpec) *trace.Trace {
	gen := trace.NonStationary{
		Base: trace.Preset{
			Name:         "ccload-flash",
			NumFiles:     files,
			FileSetBytes: totalBytes(sizes),
			NumRequests:  requests,
			AvgReqKB:     float64(avg) / 1024,
			Alpha:        zipf,
			SizeSigma:    0.01,
		},
		Flashes: []trace.FlashSpec{spec},
	}.Generate(seed, 1.0)
	tr := &trace.Trace{Name: "ccload-flash", Requests: gen.Requests}
	for f := 0; f < files; f++ {
		tr.Files = append(tr.Files, trace.File{ID: block.FileID(f), Size: sizes[block.FileID(f)]})
	}
	return tr
}

// scenarioNodeDrain: after a write burst, one node is drained — its
// invalidation bus must flush completely before it leaves, and the survivors
// must absorb its traffic (client failovers, zero errors) while serving only
// post-write bytes.
func scenarioNodeDrain(requests, concurrency int, seed int64) error {
	const files = 100
	const drainNode = 3
	sizes, nodes, client, done, err := scenarioCluster(512, files)
	if err != nil {
		return err
	}
	defer done()
	// Phase 1: mixed replay on the full cluster.
	tr := buildTrace(files, sizes, requests, 0.85, 16384, seed)
	if _, err := loadgen.Replay(client, tr, loadgen.Config{Concurrency: concurrency, WriteFrac: 0.2}); err != nil {
		return err
	}
	// One tracked write whose freshness the survivors must preserve across
	// the drain: the first file not homed at the drained node. Every file
	// is at least one full block.
	tracked := block.FileID(0)
	for middleware.RingHome(tracked, len(nodes)) == drainNode {
		tracked++
	}
	patch := bytes.Repeat([]byte{0xD7}, int(block.DefaultGeometry.Size))
	if err := client.Write(tracked, 0, patch); err != nil {
		return err
	}
	// Drain: every node flushes its outgoing invalidations, then the node
	// leaves. An unflushed bus here would strand peers stale forever — the
	// drained node's records die with it.
	if err := flushAll(nodes); err != nil {
		return err
	}
	nodes[drainNode].Close()
	// Phase 2: read-only replay avoiding the drained node's homed files.
	kept := tr.Requests[:0]
	for _, f := range tr.Requests {
		if middleware.RingHome(f, len(nodes)) != drainNode {
			kept = append(kept, f)
		}
	}
	tr.Requests = kept
	res, err := loadgen.Replay(client, tr, loadgen.Config{Concurrency: concurrency})
	if err != nil {
		return err
	}
	if res.Errors != 0 {
		return fmt.Errorf("%d errors after drain", res.Errors)
	}
	if res.Fault.Failovers+res.Fault.BreakerSkips == 0 {
		return fmt.Errorf("signature broken: no failovers or breaker skips — the drained node was never routed around")
	}
	for e := range nodes {
		if e == drainNode {
			continue
		}
		got, err := client.ReadVia(e, tracked)
		if err != nil {
			return err
		}
		if len(got) < len(patch) || !bytes.Equal(got[:len(patch)], patch) {
			return fmt.Errorf("stale bytes of file %d served via node %d after a flushed drain", tracked, e)
		}
	}
	return nil
}
