// Package obs is the observability layer of the live middleware: a
// lock-cheap registry of counters, gauges, and log-bucketed latency
// histograms with a Prometheus-text exporter, plus a bounded ring-buffer
// protocol event tracer (trace.go).
//
// The package is deliberately dependency-free (stdlib only) and cheap when
// unused: counters and gauges are read-side closures over the owner's own
// atomics (registration adds no write-path cost at all), histogram
// observation is two atomic adds, and a nil *Tracer records nothing.
package obs

import (
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// --- log-bucketed latency histogram ---

// HistBuckets is the number of finite histogram buckets. Bucket i counts
// observations with d <= 1µs·2^i, so the finite range spans 1µs to ~134s;
// anything slower lands in the +Inf overflow bucket.
const HistBuckets = 28

// BucketBound reports the upper bound of finite bucket i.
func BucketBound(i int) time.Duration {
	return time.Microsecond << i
}

// Histogram is a fixed-layout, log-bucketed latency histogram. Observe is
// two atomic adds (no locks, no allocation), so it can sit on RPC hot
// paths. The zero value is ready to use.
type Histogram struct {
	buckets  [HistBuckets + 1]atomic.Uint64 // last slot: +Inf overflow
	sumNanos atomic.Int64
}

// bucketIdx maps a duration onto its bucket: the smallest i with
// d <= 1µs·2^i, or the overflow slot.
func bucketIdx(d time.Duration) int {
	if d <= time.Microsecond {
		return 0
	}
	// Ceil to whole microseconds, then ceil(log2).
	us := uint64((d + time.Microsecond - 1) / time.Microsecond)
	i := bits.Len64(us - 1)
	if i > HistBuckets {
		return HistBuckets
	}
	return i
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[bucketIdx(d)].Add(1)
	h.sumNanos.Add(int64(d))
}

// Snapshot copies the histogram's current state. Concurrent Observes may
// straddle the copy; each sample is either fully in or fully out of the
// bucket counts (the sum can lag a bucket increment by one sample, which a
// scraper cannot distinguish from scrape timing).
func (h *Histogram) Snapshot() HistogramData { return snapshot(h.buckets[:], &h.sumNanos) }

// snapshot copies bucket counters, then their sum.
func snapshot(buckets []atomic.Uint64, sum *atomic.Int64) HistogramData {
	d := HistogramData{Buckets: make([]uint64, len(buckets))}
	for i := range buckets {
		d.Buckets[i] = buckets[i].Load()
		d.Count += d.Buckets[i]
	}
	d.SumNanos = sum.Load()
	return d
}

// HistogramData is a point-in-time histogram snapshot: per-bucket counts
// (index = bucket, last = +Inf), the total count, and the sum of observed
// nanoseconds. It is JSON-encodable (Stats RPCs carry it) and mergeable
// across nodes because every Histogram shares the same bucket layout.
type HistogramData struct {
	Buckets  []uint64 `json:"buckets"`
	Count    uint64   `json:"count"`
	SumNanos int64    `json:"sum_ns"`
}

// Merge adds o into d bucket-wise.
func (d *HistogramData) Merge(o HistogramData) {
	if len(d.Buckets) < len(o.Buckets) {
		b := make([]uint64, len(o.Buckets))
		copy(b, d.Buckets)
		d.Buckets = b
	}
	for i, c := range o.Buckets {
		d.Buckets[i] += c
	}
	d.Count += o.Count
	d.SumNanos += o.SumNanos
}

// Quantile estimates the q-quantile (q in [0,1]) from the bucket counts,
// reported as the upper bound of the bucket containing the target rank
// (the resolution of a log-bucketed histogram).
func (d HistogramData) Quantile(q float64) time.Duration {
	if d.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(d.Count-1))
	var cum uint64
	for i, c := range d.Buckets {
		cum += c
		if cum > rank {
			if i >= HistBuckets {
				return BucketBound(HistBuckets - 1) // +Inf: report the last finite bound
			}
			return BucketBound(i)
		}
	}
	return BucketBound(HistBuckets - 1)
}

// --- log-bucketed value histogram ---

// ValueHistBuckets is the number of finite value-histogram buckets. Bucket
// i counts observations with v <= 2^i, spanning 1 to 32768; larger values
// land in the +Inf overflow bucket.
const ValueHistBuckets = 16

// ValueBucketBound reports the upper bound of finite value bucket i.
func ValueBucketBound(i int) uint64 { return 1 << i }

// ValueHistogram is a fixed-layout, log-bucketed histogram for small
// dimensionless integers (run lengths, batch sizes). Like Histogram,
// Observe is two atomic adds and the zero value is ready to use.
type ValueHistogram struct {
	buckets [ValueHistBuckets + 1]atomic.Uint64 // last slot: +Inf overflow
	sum     atomic.Int64
}

// Observe records one sample.
func (h *ValueHistogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	i := 0
	if v > 1 {
		i = bits.Len64(uint64(v) - 1)
		if i > ValueHistBuckets {
			i = ValueHistBuckets
		}
	}
	h.buckets[i].Add(1)
	h.sum.Add(v)
}

// Snapshot copies the histogram's current state (same straddling caveat as
// Histogram.Snapshot). Buckets share the HistogramData layout so Stats
// merging works unchanged; bounds are 2^i values, not durations.
func (h *ValueHistogram) Snapshot() HistogramData { return snapshot(h.buckets[:], &h.sum) }

// --- metric registry ---

// A Registry holds registered metrics and renders them in the Prometheus
// text exposition format. Registration happens at setup time; scraping
// reads the owner's live atomics through the registered closures, so there
// is no copy of the counters to keep in sync.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

type family struct {
	name, help, typ string
	series          []series
}

type series struct {
	labels  string // rendered label pairs, e.g. `type="get_block"`, or ""
	counter func() uint64
	gauge   func() float64
	hist    *Histogram
	vhist   *ValueHistogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// register appends a series to (creating if needed) the named family,
// panicking on a type conflict — re-registering a name as a different
// metric type is a programming error, not a runtime condition.
func (r *Registry) register(name, help, typ string, s series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, typ, f.typ))
	}
	f.series = append(f.series, s)
}

// Counter registers a monotonically increasing series read through fn.
// labels is a rendered Prometheus label list (`key="value",...`) or "".
func (r *Registry) Counter(name, help, labels string, fn func() uint64) {
	r.register(name, help, "counter", series{labels: labels, counter: fn})
}

// Gauge registers an instantaneous-value series read through fn.
func (r *Registry) Gauge(name, help, labels string, fn func() float64) {
	r.register(name, help, "gauge", series{labels: labels, gauge: fn})
}

// Histogram registers a latency histogram series.
func (r *Registry) Histogram(name, help, labels string, h *Histogram) {
	r.register(name, help, "histogram", series{labels: labels, hist: h})
}

// ValueHistogram registers a dimensionless value histogram series.
func (r *Registry) ValueHistogram(name, help, labels string, h *ValueHistogram) {
	r.register(name, help, "histogram", series{labels: labels, vhist: h})
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, s := range f.series {
			switch {
			case s.counter != nil:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, braced(s.labels), s.counter())
			case s.gauge != nil:
				fmt.Fprintf(&b, "%s%s %g\n", f.name, braced(s.labels), s.gauge())
			case s.hist != nil:
				d := s.hist.Snapshot()
				writeHistogram(&b, f.name, s.labels, d, HistBuckets, fmt.Sprintf("%g", time.Duration(d.SumNanos).Seconds()),
					func(i int) string { return fmt.Sprintf("%g", BucketBound(i).Seconds()) })
			case s.vhist != nil:
				d := s.vhist.Snapshot()
				writeHistogram(&b, f.name, s.labels, d, ValueHistBuckets, fmt.Sprint(d.SumNanos),
					func(i int) string { return fmt.Sprint(ValueBucketBound(i)) })
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// braced renders a label list with its surrounding braces ("" stays "").
func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// writeHistogram renders one histogram series: cumulative buckets with the
// nb finite `le` bounds bound renders (seconds for latencies, powers of two
// for values), then _sum and _count.
func writeHistogram(b *strings.Builder, name, labels string, d HistogramData, nb int, sum string, bound func(int) string) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for i := 0; i < nb && i < len(d.Buckets); i++ {
		cum += d.Buckets[i]
		fmt.Fprintf(b, "%s_bucket{%s%sle=\"%s\"} %d\n", name, labels, sep, bound(i), cum)
	}
	fmt.Fprintf(b, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, d.Count)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, braced(labels), sum)
	fmt.Fprintf(b, "%s_count%s %d\n", name, braced(labels), d.Count)
}

// Handler returns an http.Handler serving the registry as a /metrics
// endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w) //nolint:errcheck // client went away
	})
}
