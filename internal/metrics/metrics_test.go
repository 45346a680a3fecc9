package metrics

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("Value = %d, want 5", got)
	}
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	var c Counter
	c.Add(-1)
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 32000 {
		t.Fatalf("Value = %d, want 32000", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Stddev() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramBasicStats(t *testing.T) {
	var h Histogram
	for _, v := range []float64{1, 2, 3, 4, 5} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
	if got := h.Mean(); got != 3 {
		t.Fatalf("Mean = %v, want 3", got)
	}
	want := math.Sqrt(2) // population stddev of 1..5
	if got := h.Stddev(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Stddev = %v, want %v", got, want)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.5, 50.5}, {1, 100}, {0.25, 25.75}, {0.95, 95.05},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestHistogramQuantileOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Quantile(2) did not panic")
		}
	}()
	var h Histogram
	h.Observe(1)
	h.Quantile(2)
}

func TestHistogramInterleavedObserveQuantile(t *testing.T) {
	var h Histogram
	h.Observe(10)
	if got := h.Quantile(0.5); got != 10 {
		t.Fatalf("Quantile = %v, want 10", got)
	}
	h.Observe(20)
	if got := h.Quantile(1); got != 20 {
		t.Fatalf("Quantile after re-observe = %v, want 20", got)
	}
}

func TestHistogramSummarize(t *testing.T) {
	var h Histogram
	for i := 1; i <= 20; i++ {
		h.Observe(float64(i))
	}
	s := h.Summarize()
	if s.Count != 20 {
		t.Fatalf("Count = %d, want 20", s.Count)
	}
	if s.Mean != 10.5 {
		t.Fatalf("Mean = %v, want 10.5", s.Mean)
	}
	if s.P50 != 10.5 {
		t.Fatalf("P50 = %v, want 10.5", s.P50)
	}
	if !(s.P5 < s.P25 && s.P25 < s.P50 && s.P50 < s.P75 && s.P75 < s.P95) {
		t.Fatalf("percentiles not monotone: %+v", s)
	}
}

// Property: quantiles are monotone in q for arbitrary sample sets.
func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	f := func(samples []float64) bool {
		var h Histogram
		for _, s := range samples {
			if math.IsNaN(s) || math.IsInf(s, 0) {
				continue
			}
			h.Observe(s)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: mean lies between min and max.
func TestHistogramMeanBoundsProperty(t *testing.T) {
	f := func(samples []float64) bool {
		var h Histogram
		n := 0
		for _, s := range samples {
			if math.IsNaN(s) || math.IsInf(s, 0) || math.Abs(s) > 1e12 {
				continue
			}
			h.Observe(s)
			n++
		}
		if n == 0 {
			return true
		}
		m := h.Mean()
		return m >= h.Quantile(0)-1e-6 && m <= h.Quantile(1)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStopwatch(t *testing.T) {
	var s Stopwatch
	if s.Busy() != 0 {
		t.Fatalf("zero Stopwatch busy = %v", s.Busy())
	}
	s.Add(3 * time.Millisecond)
	s.Add(-time.Hour) // negative adds are ignored
	if got := s.Busy(); got != 3*time.Millisecond {
		t.Fatalf("Busy = %v, want 3ms", got)
	}
}

func TestStopwatchConcurrent(t *testing.T) {
	var s Stopwatch
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				s.Add(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := s.Busy(); got != 8*1000*time.Microsecond {
		t.Fatalf("concurrent Busy = %v, want 8ms", got)
	}
}
