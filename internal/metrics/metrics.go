// Package metrics provides the lightweight measurement primitives the
// pipeline counts with: counters, stopwatches and sample histograms with
// percentile queries.
//
// The package intentionally stores raw samples rather than sketches: the
// experiments operate at simulation scale (thousands to millions of
// samples), where exact percentiles are affordable and reproducible.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing int64 counter safe for concurrent
// use. The zero value is ready to use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. n must be non-negative.
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("metrics: negative counter add %d", n))
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value reports the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Stopwatch accumulates busy time contributed by many goroutines. It is
// the primitive behind the DPP worker's per-stage (fetch / decode /
// transform / deliver) pipeline breakdown: each stage goroutine adds the
// wall time it spent working, and observers read the cumulative busy
// time concurrently. The zero value is ready to use.
type Stopwatch struct {
	ns atomic.Int64
}

// Add accumulates d of busy time. Negative durations are ignored so
// clock adjustments never rewind the total.
func (s *Stopwatch) Add(d time.Duration) {
	if d > 0 {
		s.ns.Add(int64(d))
	}
}

// Busy reports the cumulative busy time.
func (s *Stopwatch) Busy() time.Duration {
	return time.Duration(s.ns.Load())
}

// Histogram collects float64 samples and answers exact order-statistic
// queries. The zero value is ready to use. Histogram is safe for
// concurrent observation.
type Histogram struct {
	mu      sync.Mutex
	samples []float64
	sorted  bool
	sum     float64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	h.samples = append(h.samples, v)
	h.sorted = false
	h.sum += v
	h.mu.Unlock()
}

// Count reports the number of recorded samples.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}

// Mean reports the arithmetic mean, or 0 for an empty histogram.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	return h.sum / float64(len(h.samples))
}

// Stddev reports the population standard deviation, or 0 for fewer than two
// samples.
func (h *Histogram) Stddev() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.samples)
	if n < 2 {
		return 0
	}
	mean := h.sum / float64(n)
	var ss float64
	for _, v := range h.samples {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// ensureSortedLocked sorts the sample buffer if needed. Callers must hold mu.
func (h *Histogram) ensureSortedLocked() {
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
}

// Quantile reports the q-th quantile (0 <= q <= 1) using nearest-rank
// interpolation. It returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("metrics: quantile %v out of range [0,1]", q))
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.samples)
	if n == 0 {
		return 0
	}
	h.ensureSortedLocked()
	if n == 1 {
		return h.samples[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return h.samples[lo]
	}
	frac := pos - float64(lo)
	return h.samples[lo]*(1-frac) + h.samples[hi]*frac
}

// Summary is a compact distribution snapshot used in experiment reports.
type Summary struct {
	Count  int
	Mean   float64
	Stddev float64
	P5     float64
	P25    float64
	P50    float64
	P75    float64
	P95    float64
}

// Summarize captures the distribution snapshot the paper reports for I/O
// sizes (Table 6): mean, standard deviation, and the 5/25/50/75/95th
// percentiles.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count:  h.Count(),
		Mean:   h.Mean(),
		Stddev: h.Stddev(),
		P5:     h.Quantile(0.05),
		P25:    h.Quantile(0.25),
		P50:    h.Quantile(0.50),
		P75:    h.Quantile(0.75),
		P95:    h.Quantile(0.95),
	}
}
