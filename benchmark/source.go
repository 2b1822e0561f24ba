package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/middleware"
)

// timedSource wraps a node's MemSource to make it a measured layer: it
// counts and times every read and write and, once the delay is switched on,
// makes each read wait as a disk would. The wait is a sleep, so a miss
// costs latency and not CPU. When a recorder is tracing it also records a
// span per call and the set of distinct blocks read.
type timedSource struct {
	*middleware.MemSource // FileSize and Files pass through
	delay                 time.Duration
	delayOn               atomic.Bool
	rec                   *recorder

	reads, writes atomic.Uint64
	busyNanos     atomic.Int64

	mu       sync.Mutex
	distinct map[block.ID]struct{} // blocks read, traced windows only
}

func newTimedSource(inner *middleware.MemSource, delay time.Duration, rec *recorder) *timedSource {
	return &timedSource{MemSource: inner, delay: delay, rec: rec, distinct: make(map[block.ID]struct{})}
}

func (s *timedSource) ReadBlock(f block.FileID, idx int32) ([]byte, error) {
	start := s.rec.now()
	if s.delayOn.Load() {
		time.Sleep(s.delay)
	}
	data, err := s.MemSource.ReadBlock(f, idx)
	end := s.rec.now()
	s.reads.Add(1)
	s.busyNanos.Add(end - start)
	if s.rec.on.Load() {
		s.rec.add(span{Name: "source.read", Start: start, End: end, ID: s.rec.newID()})
		s.mu.Lock()
		s.distinct[block.ID{File: f, Idx: idx}] = struct{}{}
		s.mu.Unlock()
	}
	return data, err
}

func (s *timedSource) WriteBlock(f block.FileID, idx int32, data []byte) error {
	start := s.rec.now()
	err := s.MemSource.WriteBlock(f, idx, data)
	end := s.rec.now()
	s.writes.Add(1)
	s.busyNanos.Add(end - start)
	if s.rec.on.Load() {
		s.rec.add(span{Name: "source.write", Start: start, End: end, ID: s.rec.newID()})
	}
	return err
}

// sourceStats is a snapshot of a timedSource's counters.
type sourceStats struct {
	Reads, Writes uint64
	BusyNanos     int64
	Distinct      int
}

// snapshot reads the counters. The distinct set grows only while the
// recorder is on, which happens once per process.
func (s *timedSource) snapshot() sourceStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sourceStats{
		Reads: s.reads.Load(), Writes: s.writes.Load(),
		BusyNanos: s.busyNanos.Load(), Distinct: len(s.distinct),
	}
}
