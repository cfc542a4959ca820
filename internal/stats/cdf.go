package stats

import (
	"fmt"
	"io"
	"sort"
)

// CDF is a sorted empirical distribution, the exporter behind the
// fleet experiment's per-class FCT output: build once from raw
// samples, then read quantiles or dump a fixed grid to CSV. The
// samples are copied and sorted at construction so every accessor is
// read-only and O(log n) or better.
type CDF struct {
	sorted []float64
}

// NewCDF copies and sorts the samples. An empty sample set is legal
// and yields zero quantiles (a class can be absent from a shard).
func NewCDF(samples []float64) CDF {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return CDF{sorted: s}
}

// N returns the sample count.
func (c CDF) N() int { return len(c.sorted) }

// Min returns the smallest sample (0 when empty).
func (c CDF) Min() float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	return c.sorted[0]
}

// Max returns the largest sample (0 when empty).
func (c CDF) Max() float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	return c.sorted[len(c.sorted)-1]
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) by the same linear
// interpolation Percentile uses, so CDF and Percentile agree on
// shared data.
func (c CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	return percentileSorted(c.sorted, q*100)
}

// At returns the empirical CDF value P(X ≤ x): the fraction of
// samples not exceeding x. The upper-bound binary search keeps it
// O(log n) even when x ties a long run of duplicates (quantized FCTs
// produce heavy-tie populations).
func (c CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > x })
	return float64(i) / float64(len(c.sorted))
}

// DefaultQuantileGrid is the grid the fleet CSV uses: dense through
// the body, resolving the tail percentiles the paper's FCT comparisons
// hinge on.
func DefaultQuantileGrid() []float64 {
	return []float64{0.01, 0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 0.999, 1.0}
}

// WriteCSV emits the CDF evaluated on the grid as "label,quantile,
// value" rows with six significant digits — stable across runs and
// platforms for golden tests and byte-identical shard merges. A nil
// grid means DefaultQuantileGrid.
func (c CDF) WriteCSV(w io.Writer, label string, grid []float64) error {
	if grid == nil {
		grid = DefaultQuantileGrid()
	}
	for _, q := range grid {
		if _, err := fmt.Fprintf(w, "%s,%g,%.6g\n", label, q, c.Quantile(q)); err != nil {
			return err
		}
	}
	return nil
}
