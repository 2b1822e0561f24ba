package main

import (
	"math/rand"
	"time"

	"repro/internal/block"
	"repro/internal/trace"
)

// The load model shared by every workload. The cluster and the generator
// share one process on a 2-core box, so the closed loop runs 2 clients: a
// third would only queue behind the scheduler. These are constants, not
// read from the machine, so two machines run the same experiment.
const (
	clusterNodes   = 4
	loadClients    = 2
	capacityBlocks = 1536 // per node; 6144 aggregate
	traceRequests  = 1_000_000
)

var geom = block.DefaultGeometry

// workload is one cache regime. What varies is the file set against the
// per-node and the aggregate cache, the entry path, the write share and the
// cost of a miss; everything else is the production default.
type workload struct {
	Name string
	Why  string
	// Files and SetBytes size the file set (mean file 16 KB).
	Files    int
	SetBytes int64
	// Warmup is the number of trace requests replayed untimed, with the
	// source delay off, before anything is measured.
	Warmup int
	// HTTP sends every read as a keep-alive GET through the front door;
	// otherwise reads are Client.Read with round-robin entry.
	HTTP bool
	// WriteShare is the fraction of operations that are single-block
	// Client.Write calls.
	WriteShare float64
	// SourceDelay is slept in every ReadBlock during the measured windows:
	// a disk wait that burns no CPU.
	SourceDelay time.Duration
}

var workloads = []workload{
	{
		Name: "http_get", Files: 2000, SetBytes: 32 << 20, Warmup: 60_000, HTTP: true,
		Why: "GETs through httpfront with hand-off: socket, net/http, Gateway and ranged RPCs do the work; every block is a local hit, so the cooperative path is idle",
	},
	{
		Name: "coop_read", Files: 2000, SetBytes: 32 << 20, Warmup: 60_000,
		Why: "the set fits the aggregate cache but not one node, so about half the accesses are remote hits: directory, peer run fetch and conn framing do the work; httpfront and source do none",
	},
	{
		Name: "coop_write", Files: 2000, SetBytes: 32 << 20, Warmup: 60_000, WriteShare: 0.10,
		Why: "coop_read with 10% single-block writes: write-through, the invalidation bus and re-fetch after invalidate, so a read-side gain that taxes writes shows",
	},
	{
		Name: "disk_bound", Files: 8000, SetBytes: 128 << 20, Warmup: 120_000, SourceDelay: time.Millisecond,
		Why: "the set is 3x all memory and a miss waits 1 ms: hit ratio, eviction and forwarding set throughput, CPU-path changes should not move it",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// generateTrace builds the workload's request stream. The seed is the only
// input that varies between runs.
func (w workload) generateTrace(seed int64) *trace.Trace {
	return trace.Preset{
		Name: w.Name, NumFiles: w.Files, FileSetBytes: w.SetBytes, NumRequests: traceRequests,
		Alpha: 0.85, SizeSigma: 1.0, AvgReqKB: 12.8,
	}.Generate(seed, 1)
}

// op is one generated operation: a whole-file read (Idx < 0) or a write of
// block Idx with the given Version.
type op struct {
	File    block.FileID
	Idx     int32
	Version uint32
}

func (o op) isWrite() bool { return o.Idx >= 0 }

// minWriteLen is the shortest block a write may target: the payload needs
// room for its header and checksum.
const minWriteLen = payloadOverhead + 8

// opStream is one client's operation sequence: a pure function of (trace,
// seed, client), so the same seed replays the same reads and writes
// whatever the timing. Client c takes trace positions c, c+loadClients, …
// and wraps when the trace is exhausted.
type opStream struct {
	tr         *trace.Trace
	client     int
	pos        int
	writeShare float64
	rng        *rand.Rand
	// versions holds the last version this client issued per block. A
	// client writes only blocks it owns, so the map needs no lock and the
	// last entry is the version every node must converge on.
	versions map[block.ID]uint32
}

func newOpStream(tr *trace.Trace, seed int64, client, start int, writeShare float64) *opStream {
	return &opStream{
		tr: tr, client: client, pos: start + client, writeShare: writeShare,
		rng:      rand.New(rand.NewSource(seed*7919 + int64(client) + 1)),
		versions: make(map[block.ID]uint32),
	}
}

func (s *opStream) next() op {
	f := s.tr.Requests[s.pos%len(s.tr.Requests)]
	s.pos += loadClients
	if s.writeShare == 0 || s.rng.Float64() >= s.writeShare {
		return op{File: f, Idx: -1}
	}
	id := s.ownedBlock(f, s.rng.Int31())
	s.versions[id]++
	return op{File: id.File, Idx: id.Idx, Version: s.versions[id]}
}

// ownedBlock picks a block of file f (or, when f has none this client may
// write, of the next files in ID order) that this client owns. Ownership is
// a hash of the block ID, so the clients' write sets are disjoint and each
// block has a single writer whose last acknowledged version is the truth.
func (s *opStream) ownedBlock(f block.FileID, r int32) block.ID {
	for {
		size := s.tr.Size(f)
		n := geom.Count(size)
		for i := int32(0); i < n; i++ {
			id := block.ID{File: f, Idx: (r%n + i) % n}
			if blockOwner(id) == s.client && blockLen(size, id.Idx) >= minWriteLen {
				return id
			}
		}
		f = block.FileID((int(f) + 1) % len(s.tr.Files))
	}
}

func blockOwner(id block.ID) int {
	h := uint64(uint32(id.File))<<32 | uint64(uint32(id.Idx))
	h *= 0x9e3779b97f4a7c15
	return int(h>>33) % loadClients
}

// blockLen is the length of block idx of a file of the given size.
func blockLen(size int64, idx int32) int {
	rest := size - int64(idx)*int64(geom.Size)
	if rest > int64(geom.Size) {
		return geom.Size
	}
	return int(rest)
}
