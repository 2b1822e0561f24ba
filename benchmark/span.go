package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the recorder's epoch. Spans of one operation share the
// root's ID as Parent; Parent 0 marks a root, or a span whose call carries
// no request identity (source reads).
type span struct {
	Name   string
	Start  int64
	End    int64
	ID     uint64
	Parent uint64
}

// recorder keeps spans in memory while tracing is on. It is written only
// from benchmark code: the calls into each layer are wrapped from outside.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) newID() uint64 { return r.next.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the recorded spans and empties the recorder.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, s := range spans {
		fmt.Fprintf(w, `{"name":%q,"start":%d,"end":%d,"id":%d,"parent":%d}`+"\n",
			s.Name, s.Start, s.End, s.ID, s.Parent)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// selfTimes returns, for every span called name, its duration minus the
// part of that interval its child spans cover (overlapping children are
// counted once).
func selfTimes(spans []span, name string) []float64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			start, end := max(k.Start, edge), min(k.End, s.End)
			if end > start {
				covered += end - start
				edge = end
			}
		}
		out = append(out, float64(s.End-s.Start-covered))
	}
	return out
}

// durations returns the length of every span called name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// percentile returns the p-quantile (p in [0,1]) of v by the nearest-rank
// rule, sorting v in place; 0 for an empty sample.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	i := int(math.Ceil(p*float64(len(v)))) - 1
	return v[min(max(i, 0), len(v)-1)]
}

func median(v []float64) float64 { return percentile(v, 0.5) }
