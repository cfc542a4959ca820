package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by the exclusive
// method Python's statistics.quantiles uses: the rank is q·(n+1),
// interpolated linearly and clamped to the sample range. The acceptance
// check of this benchmark is stated in that method, so every quartile
// printed here is computed the same way. An empty sample gives NaN.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := q * float64(n+1)
	lo := int(math.Floor(rank))
	switch {
	case lo < 1:
		return s[0]
	case lo >= n:
		return s[n-1]
	}
	frac := rank - float64(lo)
	return s[lo-1] + frac*(s[lo]-s[lo-1])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// summary is what the report prints for one metric.
type summary struct {
	N                   int
	Median, Q1, Q3, Min float64
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	return summary{N: len(xs), Median: median(xs), Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75), Min: sorted(xs)[0]}
}
