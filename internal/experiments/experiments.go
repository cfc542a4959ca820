// Package experiments contains one runner per table and figure in the
// paper's evaluation (§6 and appendices), built on the scenario
// catalog. Each runner returns a typed result with a Render method
// that prints rows shaped like the paper's plots; cmd/sussbench and
// the top-level benchmarks drive them.
//
// Sweeps are declared as job slices and executed by internal/runner's
// bounded worker pool (every sweep takes a runner.Options); because
// every job is an independent, instance-seeded simulation and results
// are collected by job index, rendered output is identical at any
// worker count. A grid of downloads is built by sweep and summarized by
// fold.
package experiments

import (
	"fmt"

	"suss/internal/runner"
	"suss/internal/scenarios"
	"suss/internal/stats"
)

// variants returns one job template per algorithm, for sweep.
func variants(algos ...runner.Algo) []runner.Job {
	vs := make([]runner.Job, len(algos))
	for i, a := range algos {
		vs[i].Algo = a
	}
	return vs
}

// offOn are the SUSS-off and SUSS-on variants, CUBIC without and with
// the add-on, in the order every off/on result indexes them.
var offOn = variants(runner.Cubic, runner.Suss)

// sweep appends the grid sizes × variants × iters on sc to jobs: each
// job is a variant template with its scenario, size and iteration set.
func sweep(jobs []runner.Job, sc scenarios.Scenario, sizes []int64, variants []runner.Job, iters int) []runner.Job {
	for _, size := range sizes {
		for _, v := range variants {
			v.Scenario, v.Size = sc, size
			for v.Iter = 0; v.Iter < iters; v.Iter++ {
				jobs = append(jobs, v)
			}
		}
	}
	return jobs
}

// fold summarizes results laid out as sweep appends them: per size and
// variant the FCT summary (seconds) and the mean loss rate, both over
// the completed runs. It adds the failed runs to incomplete. The grid
// is allocated in blocks and the groups share one FCT buffer.
func fold(out []runner.Result, sizes []int64, variants []runner.Job, iters int, incomplete *int) (fct [][]stats.Summary, loss [][]float64) {
	ns, nv := len(sizes), len(variants)
	fct, loss = make([][]stats.Summary, ns), make([][]float64, ns)
	sums, losses, buf := make([]stats.Summary, ns*nv), make([]float64, ns*nv), make([]float64, 0, iters)
	for si := range fct {
		fct[si], loss[si] = sums[si*nv:][:nv:nv], losses[si*nv:][:nv:nv]
		for vi := range nv {
			buf = buf[:0]
			var sum float64
			for _, r := range out[(si*nv+vi)*iters:][:iters] {
				if r.Err != nil {
					*incomplete++
					continue
				}
				buf = append(buf, r.FCT.Seconds())
				sum += r.LossRate
			}
			fct[si][vi] = stats.Summarize(buf)
			if len(buf) > 0 {
				loss[si][vi] = sum / float64(len(buf))
			}
		}
	}
	return fct, loss
}

// improvement returns per size the relative mean-FCT gain of variant
// column on over column off.
func improvement(fct [][]stats.Summary, off, on int) []float64 {
	imp := make([]float64, len(fct))
	for si, row := range fct {
		imp[si] = Improvement(row[off].Mean, row[on].Mean)
	}
	return imp
}

// Improvement returns the relative FCT gain of b over a: (a-b)/a.
func Improvement(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (a - b) / a
}

// DefaultSizes is the flow-size sweep used across figures (bytes).
var DefaultSizes = []int64{
	256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20, 12 << 20,
}

// SizeLabel formats a byte count the way the paper's axes do.
func SizeLabel(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%gMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%gKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
