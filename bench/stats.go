package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantileExclusive is the q-quantile of ascending xs by the rule
// Python's statistics.quantiles uses by default (method "exclusive"):
// position q*(n+1), clamped to the sample, linear between neighbours.
// The driver judges spread with that function, so -compare does too.
func quantileExclusive(xs []float64, q float64) float64 {
	n := len(xs)
	switch n {
	case 0:
		return math.NaN()
	case 1:
		return xs[0]
	}
	pos := q * float64(n+1)
	lo := int(math.Floor(pos))
	if lo < 1 {
		lo = 1
	}
	if lo > n-1 {
		lo = n - 1
	}
	frac := pos - float64(lo)
	return xs[lo-1] + frac*(xs[lo]-xs[lo-1])
}

// summary is a sample's median, quartiles and size. Value is the figure
// reported for the sample: its median, unless whoever summarised it says
// otherwise (firstQuartile does, for CPU costs).
type summary struct {
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(xs []float64) summary {
	s := sorted(xs)
	m := quantileExclusive(s, 0.5)
	return summary{
		Value:  m,
		Median: m,
		Q1:     quantileExclusive(s, 0.25),
		Q3:     quantileExclusive(s, 0.75),
		N:      len(s),
	}
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

func median(xs []float64) float64 { return quantileExclusive(sorted(xs), 0.5) }

// tailPercentiles are the tail percentiles a report may name, ascending.
var tailPercentiles = []float64{0.5, 0.9, 0.95, 0.99, 0.999}

// highestSupportedPercentile picks the highest percentile of
// tailPercentiles that leaves at least ten of n samples beyond it (a
// percentile with fewer is one or two outliers, not a measurement). With
// fewer than 20 samples only the median qualifies.
func highestSupportedPercentile(n int) float64 {
	best := tailPercentiles[0]
	for _, p := range tailPercentiles {
		// Samples strictly beyond the p-quantile position, computed in
		// integers so 0.9*100 does not round to 89.99.
		if beyond := n - int(math.Ceil(p*float64(n)-1e-9)); beyond >= 10 {
			best = p
		}
	}
	return best
}

// percentile is the nearest-rank p-quantile of xs (any order).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p*float64(len(s))-1e-9)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}
