package loadgen

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/middleware"
	"repro/internal/trace"
)

// modelCounts is what the abstract §3 protocol predicts for a replay.
type modelCounts struct{ accesses, local, remote, disk uint64 }

// protocolModel replays tr against an abstract model of the §3 protocol:
// requests round-robin over the k nodes (one serial worker), and each block
// is a local hit where the entry node holds a copy, a remote hit where any
// master exists, and a disk read (installing the reader as master)
// otherwise. With ample capacity there are no evictions, hence no forwards,
// races, or invalidations. It knows nothing of runs, rings, buses or
// replicas: every configuration of the live path must reproduce it.
func protocolModel(tr *trace.Trace, sizes map[block.FileID]int64, k int) modelCounts {
	copies := map[block.ID]map[int]bool{}
	master := map[block.ID]bool{}
	var m modelCounts
	for req, f := range tr.Requests {
		e := req % k
		for i := int32(0); i < replayGeom.Count(sizes[f]); i++ {
			id := block.ID{File: f, Idx: i}
			m.accesses++
			if copies[id][e] {
				m.local++
				continue
			}
			if copies[id] == nil {
				copies[id] = map[int]bool{}
			}
			if master[id] {
				m.remote++
			} else {
				m.disk++
				master[id] = true
			}
			copies[id][e] = true
		}
	}
	return m
}

// TestReplayEquivalence pins the cluster's observable behaviour for a
// deterministic replay: a serial client, ample capacity, and one directory
// entry per block make every counter exactly predictable from the §3 protocol, so
// any change that altered what the cluster *does* — rather than how fast —
// fails here. The live path has one configuration, and it must be the same
// machine as the model. File bytes are checked against the synthetic content
// generator independently, and one write must cost one invalidation per node
// and be visible through every entry once the bus has drained. The second
// subtest replays the same path under a seeded fault plan, where only the
// invariants hold.
func TestReplayEquivalence(t *testing.T) {
	const k = 3
	t.Run("default", func(t *testing.T) {
		client, sizes := startClusterMut(t, k, 4096, nil, middleware.ClientConfig{})
		tr := replayTrace(sizes, 120)
		res, err := Replay(client, tr, Config{Concurrency: 1, WarmupFrac: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		got, want := res.Cluster, protocolModel(tr, sizes, k)
		if got.Accesses != want.accesses || got.LocalHits != want.local ||
			got.RemoteHits != want.remote || got.DiskReads != want.disk {
			t.Errorf("counters diverged from protocol model:\n got accesses=%d local=%d remote=%d disk=%d\nwant accesses=%d local=%d remote=%d disk=%d",
				got.Accesses, got.LocalHits, got.RemoteHits, got.DiskReads,
				want.accesses, want.local, want.remote, want.disk)
		}
		if got.RaceMisses != 0 || got.Forwards != 0 || got.Invalidations != 0 {
			t.Errorf("unexpected races=%d forwards=%d invalidations=%d (ample capacity: want 0)",
				got.RaceMisses, got.Forwards, got.Invalidations)
		}
		if got.RunsIssued == 0 || got.RunsDegraded != 0 {
			t.Errorf("runs issued=%d degraded=%d, want some issued and none degraded on a healthy cluster",
				got.RunsIssued, got.RunsDegraded)
		}
		// Placement is a pure function of the unchanging membership:
		// nothing rebalances, no heartbeat runs.
		if got.RebalancedBlocks != 0 || got.RebalancePending != 0 || got.HeartbeatFailures != 0 {
			t.Errorf("elastic machinery ran: rebalanced=%d pending=%d hbfail=%d",
				got.RebalancedBlocks, got.RebalancePending, got.HeartbeatFailures)
		}

		// Byte equivalence: every file read through the cluster must match
		// the synthetic content, block by block.
		for f := 0; f < len(sizes); f++ {
			id := block.FileID(f)
			data, err := client.Read(id)
			if err != nil {
				t.Fatalf("read file %d: %v", f, err)
			}
			if !bytes.Equal(data, syntheticFile(replayGeom, id, sizes[id])) {
				t.Fatalf("file %d content diverged (%d bytes)", f, len(data))
			}
		}

		// One write: the writer's own invalidation lands before the write
		// returns, the bus brings the others; once its backlog is empty
		// there has been exactly one per node, and every entry serves the
		// new bytes.
		patch := bytes.Repeat([]byte{0xAB}, int(sizes[0]))
		if err := client.Write(0, 0, patch); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		var after middleware.Stats
		for {
			if after, err = client.ClusterStats(); err != nil {
				t.Fatal(err)
			}
			if after.Invalidations-got.Invalidations == k && after.InvalBacklog == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("bus never converged: %d invalidations (want %d), backlog %d",
					after.Invalidations-got.Invalidations, k, after.InvalBacklog)
			}
			time.Sleep(time.Millisecond)
		}
		if d := after.Writes - got.Writes; d != 1 {
			t.Errorf("writes = %d, want 1", d)
		}
		if after.InvalBatched == 0 {
			t.Error("no batched invalidations delivered: the bus never engaged")
		}
		for e := 0; e < k; e++ {
			data, err := client.ReadVia(e, 0)
			if err != nil {
				t.Fatalf("read via %d after write: %v", e, err)
			}
			if !bytes.Equal(data, patch) {
				t.Fatalf("node %d served stale bytes after write", e)
			}
		}
	})

	// The default path under a seeded fault plan: the invariants (no errors,
	// §3 counter identity, uncorrupted bytes) hold.
	t.Run("bus_faulted", func(t *testing.T) {
		plan := &middleware.FaultPlan{
			Seed: 7, DelayProb: 0.05, Delay: time.Millisecond, DropProb: 0.05,
		}
		client, sizes := startClusterMut(t, k, 64, func(i int, cfg *middleware.Config) {
			cfg.Fault = plan
			cfg.RPCTimeout = 250 * time.Millisecond
			cfg.Retries = 3
		}, middleware.ClientConfig{RPCTimeout: 1500 * time.Millisecond, Retries: 4})
		res, err := Replay(client, replayTrace(sizes, 150), Config{Concurrency: 2, WarmupFrac: 0.25})
		if err != nil {
			t.Fatal(err)
		}
		if res.Errors != 0 {
			t.Fatalf("replay surfaced %d errors", res.Errors)
		}
		st := res.Cluster
		if sum := st.LocalHits + st.RemoteHits + st.DiskReads; sum > st.Accesses {
			t.Errorf("counter identity broken: local=%d + remote=%d + disk=%d > accesses=%d",
				st.LocalHits, st.RemoteHits, st.DiskReads, st.Accesses)
		}
		for f := 0; f < len(sizes); f++ {
			id := block.FileID(f)
			data, err := client.Read(id)
			if err != nil {
				t.Fatalf("read file %d: %v", f, err)
			}
			if want := syntheticFile(replayGeom, id, sizes[id]); !bytes.Equal(data, want) {
				t.Fatalf("file %d corrupted under faults (%d bytes)", f, len(data))
			}
		}
	})
}

// TestRunPathReplayUnderFaults replays through a seeded fault plan with cache
// pressure, so run fetches are issued constantly and some of them are dropped
// or truncated mid-flight: the partial-run fallback must repair every one of
// them per-block. The replay must finish with zero errors, the §3 counters
// must stay internally consistent (every access resolves to exactly one of
// local/remote/disk), and the bytes must still match the synthetic content.
func TestRunPathReplayUnderFaults(t *testing.T) {
	geom := block.Geometry{Size: 1024, ExtentBlocks: 8}
	plan := &middleware.FaultPlan{
		Seed: 42, DelayProb: 0.05, Delay: time.Millisecond,
		DropProb: 0.05, CrashProb: 0.01,
	}
	client, sizes := startClusterMut(t, 4, 8, func(i int, cfg *middleware.Config) {
		cfg.Fault = plan
		cfg.RPCTimeout = 250 * time.Millisecond
		cfg.Retries = 3
		cfg.BreakerThreshold = 12
		cfg.BreakerCooldown = 100 * time.Millisecond
	}, middleware.ClientConfig{RPCTimeout: 1500 * time.Millisecond, Retries: 4})
	tr := replayTrace(sizes, 200)

	res, err := Replay(client, tr, Config{Concurrency: 2, WarmupFrac: 0.25})
	if err != nil {
		t.Fatalf("replay under faults: %v", err)
	}
	if res.Errors != 0 {
		t.Fatalf("replay surfaced %d errors", res.Errors)
	}
	st := res.Cluster
	// Counter identity under faults: every access resolves to at most one of
	// local/remote/disk. An access can go unresolved only when a server-side
	// read aborts mid-file (the client then times out or fails over and
	// retries the whole read), so the slack is bounded by the client's
	// observed fault activity.
	sum := st.LocalHits + st.RemoteHits + st.DiskReads
	if sum > st.Accesses {
		t.Errorf("counter identity broken: local=%d + remote=%d + disk=%d > accesses=%d",
			st.LocalHits, st.RemoteHits, st.DiskReads, st.Accesses)
	}
	if slack := st.Accesses - sum; slack > res.Fault.Timeouts+res.Fault.Failovers {
		t.Errorf("unresolved accesses %d exceed client fault activity (timeouts=%d failovers=%d)",
			slack, res.Fault.Timeouts, res.Fault.Failovers)
	}
	if st.RunsIssued == 0 {
		t.Error("no run fetches under cache pressure — fast path never engaged")
	}
	if st.RunsDegraded == 0 {
		t.Error("no degraded runs under a 5%% drop plan — partial-run fallback never exercised")
	}
	t.Logf("faulted replay: runs issued=%d degraded=%d, accesses=%d local=%d remote=%d disk=%d",
		st.RunsIssued, st.RunsDegraded, st.Accesses, st.LocalHits, st.RemoteHits, st.DiskReads)

	// The storm must not have corrupted anything: every file read after the
	// replay matches the synthetic content byte for byte.
	for f := 0; f < len(sizes); f++ {
		id := block.FileID(f)
		data, err := client.Read(id)
		if err != nil {
			t.Fatalf("read file %d after faulted replay: %v", f, err)
		}
		if want := syntheticFile(geom, id, sizes[id]); !bytes.Equal(data, want) {
			t.Fatalf("file %d corrupted after faulted replay (%d bytes)", f, len(data))
		}
	}
}

// syntheticFile composes the expected content of a whole synthetic file.
func syntheticFile(geom block.Geometry, f block.FileID, size int64) []byte {
	out := make([]byte, 0, size)
	for i := int32(0); i < geom.Count(size); i++ {
		n := int(size - int64(i)*int64(geom.Size))
		if n > geom.Size {
			n = geom.Size
		}
		out = append(out, middleware.SyntheticBlock(f, i, n)...)
	}
	return out
}
