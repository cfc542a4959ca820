// Package stats provides the evaluation metrics the paper reports:
// flow completion time aggregates, goodput, packet-loss rate, Jain's
// fairness index (RFC 5166's recommendation), and time-binned series
// for plotting-style output.
package stats

import (
	"math"
	"slices"
	"sort"
	"time"
)

// Mean returns the arithmetic mean (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += float64(d * d)
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) by linear
// interpolation.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// percentileSorted is Percentile on an already-sorted slice, so callers
// computing several percentiles sort only once.
func percentileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := float64(p / 100 * float64(len(sorted)-1))
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return float64(sorted[lo]*(1-frac)) + float64(sorted[lo+1]*frac)
}

// JainIndex computes Jain's fairness index F = (Σx)² / (n·Σx²) over
// per-flow goodputs. F = 1 is perfectly fair; F → 1/n is maximally
// unfair. Zero-valued flows count toward n (a starved flow is unfair).
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += float64(x * x)
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// DurationsToSeconds converts for metric aggregation.
func DurationsToSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// Summary aggregates repeated measurements of one quantity.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	P50    float64
	P95    float64
	Min    float64
	Max    float64
}

// Summarize computes a Summary. The input is copied (on the stack when
// small) and sorted once; percentiles and min/max read the copy.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	var small [16]float64
	sorted := append(small[:0], xs...)
	slices.Sort(sorted)
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		P50:    percentileSorted(sorted, 50),
		P95:    percentileSorted(sorted, 95),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
	}
}

// BinnedCounter accumulates a quantity (e.g. delivered bytes) into
// fixed time bins, for goodput-over-time and fairness-over-time plots.
type BinnedCounter struct {
	Bin  time.Duration
	vals []float64
}

// NewBinnedCounter creates a counter with the given bin width.
func NewBinnedCounter(bin time.Duration) *BinnedCounter {
	if bin <= 0 {
		panic("stats: bin width must be positive")
	}
	return &BinnedCounter{Bin: bin}
}

// Add accumulates v into the bin containing time t. A negative t (a
// pre-start event, e.g. an observation stamped before the flow's
// virtual start) clamps into the first bin rather than panicking on a
// negative index.
func (b *BinnedCounter) Add(t time.Duration, v float64) {
	if t < 0 {
		t = 0
	}
	idx := int(t / b.Bin)
	for len(b.vals) <= idx {
		b.vals = append(b.vals, 0)
	}
	b.vals[idx] += v
}

// Bins returns the accumulated values per bin.
func (b *BinnedCounter) Bins() []float64 { return b.vals }

// Rate returns per-bin values divided by the bin width in seconds
// (bytes-added → bytes/sec).
func (b *BinnedCounter) Rate() []float64 {
	out := make([]float64, len(b.vals))
	sec := b.Bin.Seconds()
	for i, v := range b.vals {
		out[i] = v / sec
	}
	return out
}

// JainOverTime computes Jain's index per time bin across several
// flows' binned goodputs. Shorter series are zero-padded: a flow that
// has not started (or has finished) contributes zero goodput in a bin
// only if includeIdle is true; otherwise bins where a flow is inactive
// exclude it from n.
func JainOverTime(flows []*BinnedCounter, includeIdle bool) []float64 {
	maxLen := 0
	for _, f := range flows {
		if len(f.Bins()) > maxLen {
			maxLen = len(f.Bins())
		}
	}
	out := make([]float64, maxLen)
	for i := 0; i < maxLen; i++ {
		var xs []float64
		for _, f := range flows {
			bins := f.Bins()
			v := 0.0
			if i < len(bins) {
				v = bins[i]
			}
			if v > 0 || includeIdle {
				xs = append(xs, v)
			}
		}
		out[i] = JainIndex(xs)
	}
	return out
}
