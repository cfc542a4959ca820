// Package experiments contains one runner per table and figure in the
// paper's evaluation (§6 and appendices), built on the scenario
// catalog. Each runner returns a typed result with a Render method
// that prints rows shaped like the paper's plots; cmd/sussbench and
// the top-level benchmarks drive them.
//
// Sweeps are declared as job slices and executed by internal/runner's
// bounded worker pool (see Option); because every job is an
// independent, instance-seeded simulation and results are collected by
// job index, rendered output is identical at any worker count.
package experiments

import (
	"context"
	"fmt"
	"slices"

	"suss/internal/runner"
	"suss/internal/scenarios"
	"suss/internal/stats"
)

// Algo selects a congestion-control algorithm for a flow. It is the
// runner package's catalog, re-exported so experiment call sites stay
// concise.
type Algo = runner.Algo

const (
	// Cubic is CUBIC with HyStart, SUSS off (the paper's baseline).
	Cubic = runner.Cubic
	// Suss is CUBIC with the SUSS add-on enabled.
	Suss = runner.Suss
	// BBR is BBRv1.
	BBR = runner.BBR
	// BBR2 is the BBRv2-lite variant.
	BBR2 = runner.BBR2
	// CubicHSPP is CUBIC with HyStart++ (RFC 9406).
	CubicHSPP = runner.CubicHSPP
	// BBRSuss is the paper's §7 future work: BBRv1 with SUSS-style
	// growth prediction.
	BBRSuss = runner.BBRSuss
	// Reno is classic AIMD (RFC 5681), the implicit baseline.
	Reno = runner.Reno
)

// Option configures how a sweep executes (worker count, cancellation,
// progress reporting). The zero configuration runs on GOMAXPROCS
// workers; the numbers are identical at any worker count.
type Option func(*config)

type config struct {
	ctx      context.Context
	workers  int
	progress func(done, total int)
	lossAcct bool
}

func newConfig(opts []Option) config {
	c := config{ctx: context.Background()}
	for _, o := range opts {
		o(&c)
	}
	return c
}

func (c config) pool() runner.Options {
	return runner.Options{Workers: c.workers, Progress: c.progress}
}

// WithWorkers bounds the sweep's concurrency (≤ 0 = GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// WithContext makes the sweep cancellable; jobs not yet started when
// ctx is cancelled become error-carrying results.
func WithContext(ctx context.Context) Option {
	return func(c *config) { c.ctx = ctx }
}

// WithProgress installs a per-job completion callback (serialized).
func WithProgress(fn func(done, total int)) Option {
	return func(c *config) { c.progress = fn }
}

// WithLossAccounting attaches a flight recorder to every download in
// the sweep and aggregates the cross-layer loss ledgers into the
// result (sweeps that support it; currently Fig. 11). Default output
// is unchanged when the option is absent.
func WithLossAccounting() Option {
	return func(c *config) { c.lossAcct = true }
}

// batch summarizes a slice of runner results: completion times in
// seconds and mean loss over the completed runs, plus the failures.
type batch struct {
	fcts       []float64
	meanLoss   float64
	incomplete int
	firstErr   error
}

func summarizeBatch(res []runner.Result, buf []float64) batch {
	b := batch{fcts: slices.Grow(buf[:0], len(res))}
	var loss float64
	for _, r := range res {
		if r.Err != nil {
			b.incomplete++
			if b.firstErr == nil {
				b.firstErr = r.Err
			}
			continue
		}
		b.fcts = append(b.fcts, r.FCT.Seconds())
		loss += r.LossRate
	}
	if len(b.fcts) > 0 {
		b.meanLoss = loss / float64(len(b.fcts))
	}
	return b
}

// foldSizes summarizes results laid out sizes × algos × iters: per
// size and algo the FCT summary and mean loss, per size SUSS's
// improvement over CUBIC; it adds the failed runs to incomplete. The
// grid is allocated in blocks and the groups share one FCT buffer.
func foldSizes(out []runner.Result, sizes int, algos []Algo, iters int, incomplete *int) (fct [][]stats.Summary, loss [][]float64, imp []float64) {
	na := len(algos)
	fct, loss, imp = make([][]stats.Summary, sizes), make([][]float64, sizes), make([]float64, sizes)
	sums, losses, buf := make([]stats.Summary, sizes*na), make([]float64, sizes*na), make([]float64, 0, iters)
	for si := range fct {
		fct[si], loss[si] = sums[si*na:][:na:na], losses[si*na:][:na:na]
		var cubicMean, sussMean float64
		for ai, algo := range algos {
			b := summarizeBatch(out[(si*na+ai)*iters:][:iters], buf)
			*incomplete += b.incomplete
			fct[si][ai], loss[si][ai] = stats.Summarize(b.fcts), b.meanLoss
			switch algo {
			case Cubic:
				cubicMean = fct[si][ai].Mean
			case Suss:
				sussMean = fct[si][ai].Mean
			}
		}
		imp[si] = Improvement(cubicMean, sussMean)
	}
	return fct, loss, imp
}

// FCTs runs iters downloads as one job batch and returns completion
// times in seconds plus the mean loss rate. A non-completing flow is a
// bug in the stack, not a data point: it is dropped from fcts and
// reported through err (the other iterations still run).
func FCTs(sc scenarios.Scenario, algo Algo, size int64, iters int, opts ...Option) (fcts []float64, meanLoss float64, err error) {
	cfg := newConfig(opts)
	jobs := make([]runner.Job, iters)
	for i := range jobs {
		jobs[i] = runner.Job{Scenario: sc, Algo: algo, Size: size, Iter: i}
	}
	b := summarizeBatch(runner.Run(cfg.ctx, jobs, cfg.pool()), nil)
	if b.incomplete > 0 {
		err = fmt.Errorf("experiments: %d/%d downloads failed: %w", b.incomplete, iters, b.firstErr)
	}
	return b.fcts, b.meanLoss, err
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
