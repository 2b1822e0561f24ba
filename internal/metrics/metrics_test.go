package metrics

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestResponseTimesBasics(t *testing.T) {
	var r ResponseTimes
	if r.Mean() != 0 || r.Count() != 0 || r.Percentile(0.5) != 0 {
		t.Fatal("empty accumulator not zero")
	}
	for _, d := range []sim.Duration{10, 20, 30} {
		r.Add(d * sim.Millisecond)
	}
	if r.Count() != 3 {
		t.Fatalf("Count = %d", r.Count())
	}
	if r.Mean() != 20*sim.Millisecond {
		t.Fatalf("Mean = %v", r.Mean())
	}
	if r.Min() != 10*sim.Millisecond || r.Max() != 30*sim.Millisecond {
		t.Fatalf("Min/Max = %v/%v", r.Min(), r.Max())
	}
}

func TestPercentiles(t *testing.T) {
	var r ResponseTimes
	for i := 1; i <= 100; i++ {
		r.Add(sim.Duration(i))
	}
	if p := r.Percentile(0); p != 1 {
		t.Fatalf("P0 = %v", p)
	}
	if p := r.Percentile(1); p != 100 {
		t.Fatalf("P100 = %v", p)
	}
	if p := r.Percentile(0.5); p < 49 || p > 51 {
		t.Fatalf("P50 = %v", p)
	}
	if q := r.Percentiles(0, 0.5, 1); q[0] != 1 || q[1] != r.Percentile(0.5) || q[2] != 100 {
		t.Fatalf("Percentiles(0, 0.5, 1) = %v", q)
	}
	// Adding after sorting must keep results correct.
	r.Add(sim.Duration(1000))
	if p := r.Percentile(1); p != 1000 {
		t.Fatalf("P100 after re-add = %v", p)
	}
}

func TestPercentileBoundsPanic(t *testing.T) {
	var r ResponseTimes
	r.Add(1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for p=2")
		}
	}()
	r.Percentile(2)
}

func TestReserveKeepsSamples(t *testing.T) {
	var r ResponseTimes
	r.Add(5)
	r.Reserve(1000)
	r.Add(15)
	if r.Count() != 2 || r.Min() != 5 || r.Max() != 15 {
		t.Fatalf("after Reserve: count=%d min=%v max=%v", r.Count(), r.Min(), r.Max())
	}
	if got := cap(r.samples); got < 1000 {
		t.Fatalf("Reserve(1000) left cap %d", got)
	}
	// Shrinking reserve is a no-op.
	r.Reserve(1)
	if cap(r.samples) < 1000 {
		t.Fatal("Reserve shrank the slice")
	}
}

func TestReservoirBoundsMemoryKeepsExactMoments(t *testing.T) {
	const limit, n = 64, 10000
	r := NewResponseTimes(limit)
	var sum sim.Duration
	for i := 1; i <= n; i++ {
		d := sim.Duration(i)
		r.Add(d)
		sum += d
	}
	if r.Count() != n {
		t.Fatalf("Count = %d, want %d", r.Count(), n)
	}
	if r.Sampled() != limit {
		t.Fatalf("Sampled = %d, want %d", r.Sampled(), limit)
	}
	if r.Min() != 1 || r.Max() != n {
		t.Fatalf("Min/Max = %v/%v", r.Min(), r.Max())
	}
	if want := sum / n; r.Mean() != want {
		t.Fatalf("Mean = %v, want %v", r.Mean(), want)
	}
	// The retained samples are a uniform draw from [1, n]; the median
	// estimate must land in the body of the distribution, not the tails.
	med := r.Percentile(0.5)
	if med < n/10 || med > 9*n/10 {
		t.Fatalf("reservoir median %v implausible for uniform 1..%d", med, n)
	}
}

func TestReservoirDeterministic(t *testing.T) {
	a, b := NewResponseTimes(32), NewResponseTimes(32)
	for i := 0; i < 5000; i++ {
		d := sim.Duration(i*2654435761) % 1000003
		a.Add(d)
		b.Add(d)
	}
	for _, p := range []float64{0, 0.25, 0.5, 0.95, 1} {
		if a.Percentile(p) != b.Percentile(p) {
			t.Fatalf("same-input reservoirs diverged at p=%v", p)
		}
	}
}

func TestReservoirCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewResponseTimes(0) did not panic")
		}
	}()
	NewResponseTimes(0)
}

func TestThroughput(t *testing.T) {
	got := Throughput(500, sim.Time(0), sim.Time(2*sim.Second))
	if got != 250 {
		t.Fatalf("Throughput = %f", got)
	}
	if Throughput(10, 5, 5) != 0 {
		t.Fatal("zero window should give zero throughput")
	}
}

// Property: mean is always within [min, max] and percentiles are monotone.
func TestStatsProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var r ResponseTimes
		for _, v := range raw {
			r.Add(sim.Duration(v))
		}
		m := r.Mean()
		if m < r.Min() || m > r.Max() {
			return false
		}
		last := sim.Duration(-1)
		for _, p := range []float64{0, 0.25, 0.5, 0.75, 0.95, 1} {
			q := r.Percentile(p)
			if q < last {
				return false
			}
			last = q
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentAddPercentile is the regression test for the data race
// between Add and Percentile: Percentile sorts the retained samples lazily
// in place, so a concurrent Add used to mutate the slice mid-sort. Run
// under -race (CI does) this fails on the unsynchronized implementation.
// p50 and p99 come from one Percentiles call, one sample set: two calls
// could straddle a reservoir replacement and see p99 below p50.
func TestConcurrentAddPercentile(t *testing.T) {
	const (
		writers   = 4
		perWriter = 2000
	)
	r := NewResponseTimes(256)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Add(sim.Duration(w*perWriter + i + 1))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		if q := r.Percentiles(0.5, 0.99); q[0] > q[1] {
			t.Errorf("p50 %v > p99 %v", q[0], q[1])
		}
		_ = r.Mean()
		_, _ = r.Min(), r.Max()
		_, _ = r.Count(), r.Sampled()
	}
	if got, want := r.Count(), writers*perWriter; got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
	if got, want := r.Sampled(), 256; got != want {
		t.Fatalf("reservoir retained %d samples, want %d", got, want)
	}
}
