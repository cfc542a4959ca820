package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"

	"suss/internal/runner"
	"suss/internal/scenarios"
	"suss/internal/stats"
)

// MatrixCell holds one scenario's sweep results (one cell of the 7×4
// internet matrix), covering both Fig. 18 (FCT + improvement) and
// Fig. 17 (loss rates).
type MatrixCell struct {
	Scenario scenarios.Scenario
	Sizes    []int64
	// FCT[size][algo] in seconds, algos ordered as Algos.
	Algos []runner.Algo
	FCT   [][]stats.Summary
	// Improvement[size]: SUSS vs CUBIC.
	Improvement []float64
	// Loss[size][algo]: mean loss rate.
	Loss [][]float64
	// Incomplete counts downloads that never finished; they are
	// excluded from the summaries.
	Incomplete int
}

// MatrixResult is the full 28-scenario sweep.
type MatrixResult struct {
	Cells []MatrixCell
}

// matrixAlgos orders each cell's algorithm columns. Reno rides along
// as the classic-AIMD yardstick; the first three columns keep their
// order so existing readers of the CSV stay aligned.
var matrixAlgos = []runner.Algo{runner.BBR, runner.Suss, runner.Cubic, runner.Reno}

// matrixVariants are matrixAlgos as sweep templates.
var matrixVariants = variants(matrixAlgos...)

// buildCell aggregates a cell's job results (laid out by sweep over
// matrixVariants).
func buildCell(sc scenarios.Scenario, sizes []int64, iters int, out []runner.Result) MatrixCell {
	cell := MatrixCell{
		Scenario: sc,
		Sizes:    sizes,
		Algos:    matrixAlgos,
	}
	cell.FCT, cell.Loss = fold(out, sizes, matrixVariants, iters, &cell.Incomplete)
	cell.Improvement = improvement(cell.FCT, 2, 1)
	return cell
}

// RunMatrix sweeps all 28 scenarios as a single job batch — every
// (scenario, size, algo, iteration) download fans out across the
// worker pool at once. Fig. 17 uses the loss columns, Fig. 18 the FCT
// and improvement columns.
func RunMatrix(sizes []int64, iters int, seed int64, opt runner.Options) MatrixResult {
	scs := scenarios.All(seed)
	var jobs []runner.Job
	for _, sc := range scs {
		jobs = sweep(jobs, sc, sizes, matrixVariants, iters)
	}
	out := runner.Run(context.Background(), jobs, opt)

	var res MatrixResult
	per := len(sizes) * len(matrixVariants) * iters
	for ci, sc := range scs {
		res.Cells = append(res.Cells, buildCell(sc, sizes, iters, out[ci*per:][:per]))
	}
	return res
}

// RunMatrixCell sweeps one scenario.
func RunMatrixCell(sc scenarios.Scenario, sizes []int64, iters int, opt runner.Options) MatrixCell {
	return buildCell(sc, sizes, iters, runner.Run(context.Background(), sweep(nil, sc, sizes, matrixVariants, iters), opt))
}

// Render prints a cell in Fig. 18's per-panel format.
func (c MatrixCell) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] %s (RTT %v, BtlBw %.0f Mbps)\n",
		c.Scenario.ID(), c.Scenario.Name(), c.Scenario.RTT, c.Scenario.BtlBw()/1e6)
	fmt.Fprintf(&b, "  %-8s", "size")
	for _, a := range c.Algos {
		fmt.Fprintf(&b, " %10s", a)
	}
	fmt.Fprintf(&b, " %9s  %s\n", "improve", "loss(bbr/suss/cubic)")
	for si, size := range c.Sizes {
		fmt.Fprintf(&b, "  %-8s", SizeLabel(size))
		for ai := range c.Algos {
			fmt.Fprintf(&b, " %9.2fs", c.FCT[si][ai].Mean)
		}
		fmt.Fprintf(&b, " %8.1f%%  %.2f%%/%.2f%%/%.2f%%\n",
			100*c.Improvement[si],
			100*c.Loss[si][0], 100*c.Loss[si][1], 100*c.Loss[si][2])
	}
	if c.Incomplete > 0 {
		fmt.Fprintf(&b, "  WARNING: %d download(s) did not complete (excluded)\n", c.Incomplete)
	}
	return b.String()
}

// Incomplete sums the non-completing downloads across cells.
func (r MatrixResult) Incomplete() int {
	n := 0
	for _, c := range r.Cells {
		n += c.Incomplete
	}
	return n
}

// Render prints every cell.
func (r MatrixResult) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 17/18 — all 28 internet scenarios\n")
	for _, c := range r.Cells {
		b.WriteString(c.Render())
	}
	b.WriteString(r.Summary())
	return b.String()
}

// Summary prints the headline aggregate: how many scenarios SUSS wins
// against plain CUBIC, and the small-flow improvement distribution.
func (r MatrixResult) Summary() string {
	wins, total := 0, 0
	var smallImp []float64
	for _, c := range r.Cells {
		cellWin := true
		for si, size := range c.Sizes {
			if c.Improvement[si] < 0 {
				cellWin = false
			}
			if size <= 2<<20 {
				smallImp = append(smallImp, c.Improvement[si])
			}
		}
		if cellWin {
			wins++
		}
		total++
	}
	s := stats.Summarize(smallImp)
	return fmt.Sprintf("summary: SUSS ≥ CUBIC in %d/%d scenarios; small-flow (≤2MB) improvement mean %.1f%% (min %.1f%%, max %.1f%%)\n",
		wins, total, 100*s.Mean, 100*s.Min, 100*s.Max)
}

// WriteCSV emits the 28-scenario matrix as CSV rows:
// cell,scenario,rtt_ms,btlbw_mbps,size_bytes,algo,fct_mean_s,loss,improvement.
func (r MatrixResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "cell,scenario,rtt_ms,btlbw_mbps,size_bytes,algo,fct_mean_s,loss,improvement"); err != nil {
		return err
	}
	for _, c := range r.Cells {
		for si, size := range c.Sizes {
			for ai, a := range c.Algos {
				if _, err := fmt.Fprintf(w, "%s,%s,%.0f,%.0f,%d,%s,%.6f,%.6f,%.4f\n",
					c.Scenario.ID(), c.Scenario.Name(),
					float64(c.Scenario.RTT)/1e6, c.Scenario.BtlBw()/1e6,
					size, a, c.FCT[si][ai].Mean, c.Loss[si][ai], c.Improvement[si]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
