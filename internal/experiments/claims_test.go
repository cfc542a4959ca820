package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"suss/internal/runner"
)

// claimResults holds what the claim rows measure: one run of each
// experiment a row reads, at the settings EXPERIMENTS.md names.
type claimResults struct {
	matrix MatrixResult
}

// claim is one headline claim of the paper, checked against what this
// code computes. measure reads a number off the results, band is the
// range the paper's text allows (never widened to fit a miss), and
// verdict records where the measure lands today: "holds" inside the
// band, "diverges" outside it. A change of verdict fails the test, so a
// fix or a regression shows up as a row to rewrite here and in
// EXPERIMENTS.md.
type claim struct {
	id      string
	paper   string
	measure func(claimResults) float64
	band    [2]float64
	verdict string
}

// claims are the rows checked so far, in EXPERIMENTS.md's order.
var claims = []claim{
	{
		id:    "fct-gain-small-long-rtt",
		paper: ">20 % FCT improvement in all scenarios with flow ≤ 5 MB and RTT > 50 ms (abstract)",
		// The lowest SUSS-vs-CUBIC gain over the matrix's size cells of
		// 4 MB or less in scenarios whose RTT is above 50 ms.
		measure: func(r claimResults) float64 {
			return minGain(r.matrix, func(c MatrixCell, size int64) bool {
				return c.Scenario.RTT > 50*time.Millisecond && size <= 4<<20
			})
		},
		band:    [2]float64{0.20, 1},
		verdict: "holds",
	},
	{
		id:    "suss-never-loses-to-cubic",
		paper: "SUSS ≥ CUBIC in all 28 scenarios (§6.2)",
		// The number of (scenario, size) cells where SUSS's mean FCT is
		// above CUBIC's.
		measure: func(r claimResults) float64 {
			n := 0
			for _, c := range r.matrix.Cells {
				for si := range c.Sizes {
					if c.Improvement[si] < 0 {
						n++
					}
				}
			}
			return float64(n)
		},
		band:    [2]float64{0, 0},
		verdict: "diverges",
	},
}

// minGain is the lowest improvement over the matrix's size cells that
// keep selects.
func minGain(m MatrixResult, keep func(MatrixCell, int64) bool) float64 {
	low, n := 1.0, 0
	for _, c := range m.Cells {
		for si, size := range c.Sizes {
			if keep(c, size) {
				low, n = min(low, c.Improvement[si]), n+1
			}
		}
	}
	if n == 0 {
		panic("minGain: no cell selected")
	}
	return low
}

// TestClaims measures every claim row (`make claims` prints the table)
// and fails when a row's verdict has changed. The matrix runs as
// `sussbench -only matrix -iters 5` does: its five sizes, seed 1.
func TestClaims(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("simulates the 28-scenario matrix (2 800 downloads)")
	}
	r := claimResults{
		matrix: RunMatrix([]int64{1 << 20, 2 << 20, 4 << 20, 8 << 20, 12 << 20}, 5, 1, runner.Options{}),
	}
	if n := r.matrix.Incomplete(); n > 0 {
		t.Fatalf("%d matrix downloads did not complete", n)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s %-9s %10s  %-14s %s\n", "claim", "verdict", "measured", "band", "paper")
	for _, c := range claims {
		v := c.measure(r)
		verdict := "diverges"
		if c.band[0] <= v && v <= c.band[1] {
			verdict = "holds"
		}
		fmt.Fprintf(&b, "%-26s %-9s %10.4g  [%g, %g] %s\n", c.id, verdict, v, c.band[0], c.band[1], c.paper)
		if verdict != c.verdict {
			t.Errorf("%s: measured %g against the band [%g, %g]: the verdict is now %q, recorded %q",
				c.id, v, c.band[0], c.band[1], verdict, c.verdict)
		}
	}
	t.Log("\n" + b.String())
}
