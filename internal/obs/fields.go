package obs

import (
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"unicode"
)

// A component declares each counter and gauge once, as a tagged struct field:
//
//	Reads uint64 `metric:"cc_reads_total" help:"reads served"`
//	Depth uint64 `metric:"cc_queue_depth,gauge" agg:"max" help:"deepest queue"`
//
// The metric tag holds the Prometheus name and, after a comma, the type (a
// counter when omitted); agg:"max" makes Sum keep the larger value instead
// of adding. Embedded structs' fields count as the embedder's; untagged
// fields are no metrics. A live struct's fields are uint64, bumped with
// atomic.AddUint64; a snapshot's may also be ints. The functions below
// derive everything else from the declaration, off the hot path.

// declared is one tagged field.
type declared struct {
	index        []int
	name         string // Go field name
	metric, help string
	gauge, max   bool
}

// declarations lists t's tagged fields in declaration order.
func declarations(t reflect.Type) []declared {
	var ds []declared
	for _, sf := range reflect.VisibleFields(t) {
		if tag, ok := sf.Tag.Lookup("metric"); ok {
			metric, kind, _ := strings.Cut(tag, ",")
			ds = append(ds, declared{index: sf.Index, name: sf.Name, metric: metric,
				help: sf.Tag.Get("help"), gauge: kind == "gauge", max: sf.Tag.Get("agg") == "max"})
		}
	}
	return ds
}

// register adds d's series to r, valued by val.
func (d declared) register(r *Registry, val func() uint64) {
	if d.gauge {
		r.Gauge(d.metric, d.help, "", func() float64 { return float64(val()) })
	} else {
		r.Counter(d.metric, d.help, "", val)
	}
}

func get(v reflect.Value) uint64 {
	if v.CanUint() {
		return v.Uint()
	}
	return uint64(v.Int())
}

func set(v reflect.Value, x uint64) {
	if v.CanUint() {
		v.SetUint(x)
	} else {
		v.SetInt(int64(x))
	}
}

// Register registers one series per declared field of the live struct *p,
// read with an atomic load at scrape time.
func Register[T any](r *Registry, p *T) {
	v := reflect.ValueOf(p).Elem()
	for _, d := range declarations(v.Type()) {
		ptr := v.FieldByIndex(d.index).Addr().Interface().(*uint64)
		d.register(r, func() uint64 { return atomic.LoadUint64(ptr) })
	}
}

// RegisterFunc registers one series per declared field of T, valued from a
// fresh read() at scrape time.
func RegisterFunc[T any](r *Registry, read func() T) {
	for _, d := range declarations(reflect.TypeFor[T]()) {
		d.register(r, func() uint64 { return get(reflect.ValueOf(read()).FieldByIndex(d.index)) })
	}
}

// Snapshot copies the declared fields of the live struct *p with atomic
// loads; undeclared fields stay zero.
func Snapshot[T any](p *T) T {
	var out T
	src, dst := reflect.ValueOf(p).Elem(), reflect.ValueOf(&out).Elem()
	for _, d := range declarations(src.Type()) {
		ptr := src.FieldByIndex(d.index).Addr().Interface().(*uint64)
		dst.FieldByIndex(d.index).SetUint(atomic.LoadUint64(ptr))
	}
	return out
}

// Sum returns a with b's declared fields added in, or for agg:"max" fields
// the larger of the two. Undeclared fields are a's.
func Sum[T any](a, b T) T {
	return combine(a, b, func(d declared, x, y uint64) uint64 {
		if d.max {
			return max(x, y)
		}
		return x + y
	})
}

// Delta returns after with each declared counter less its value in before:
// the counts over the span between two snapshots. Gauges keep after's level.
func Delta[T any](after, before T) T {
	return combine(after, before, func(d declared, x, y uint64) uint64 {
		if d.gauge {
			return x
		}
		return x - y
	})
}

// combine sets each declared field of a to f of a's and b's values.
func combine[T any](a, b T, f func(d declared, x, y uint64) uint64) T {
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(b)
	for _, d := range declarations(av.Type()) {
		x := av.FieldByIndex(d.index)
		set(x, f(d, get(x), get(bv.FieldByIndex(d.index))))
	}
	return a
}

// Pairs prints v's declared fields as space-separated name=value pairs, each
// name its Go name in snake case (LocalHits: local_hits, RPCTimeouts:
// rpc_timeouts).
func Pairs(v any) string {
	rv := reflect.ValueOf(v)
	var b []byte
	for _, d := range declarations(rv.Type()) {
		if len(b) > 0 {
			b = append(b, ' ')
		}
		for i, r := range d.name {
			// A capital starts a word after a lower-case letter, or ends an
			// acronym before one.
			if i > 0 && unicode.IsUpper(r) && (unicode.IsLower(rune(d.name[i-1])) ||
				i+1 < len(d.name) && unicode.IsLower(rune(d.name[i+1]))) {
				b = append(b, '_')
			}
			b = append(b, byte(unicode.ToLower(r)))
		}
		b = strconv.AppendUint(append(b, '='), get(rv.FieldByIndex(d.index)), 10)
	}
	return string(b)
}
