package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"suss/internal/runner"
	"suss/internal/scenarios"
	"suss/internal/stats"
)

// Fig16Result reproduces Fig. 16 and Table 1: one large flow sharing
// the bottleneck with twelve sequentially-started 2 MB flows of
// different minRTTs.
type Fig16Result struct {
	LargeAlgo runner.Algo
	SmallAlgo runner.Algo
	RTT       time.Duration
	BufferBDP float64
	// LargeFCT is the large flow's completion time (seconds).
	LargeFCT float64
	// SmallFCTs are the twelve small-flow completion times (seconds).
	SmallFCTs []float64
	// LargeGoodput is the large flow's goodput per second (bits/sec).
	LargeGoodput []float64
}

// RunFig16 runs the stability workload: a large flow of largeSize
// bytes plus twelve 2 MB flows at 2-second intervals, small flows
// rotating over the remaining four pairs with spread minRTTs.
func RunFig16(largeAlgo, smallAlgo runner.Algo, rtt time.Duration, bufferBDP float64, largeSize int64) Fig16Result {
	c := fig16Cell{largeAlgo, smallAlgo, rtt, bufferBDP, largeSize}
	return c.result(runTestbeds(c.job())[0])
}

// fig16Cell is one stability run's parameters.
type fig16Cell struct {
	largeAlgo, smallAlgo runner.Algo
	rtt                  time.Duration
	bufferBDP            float64
	largeSize            int64
}

// job is the cell's testbed run.
func (c fig16Cell) job() runner.TestbedJob {
	tb := scenarios.DefaultTestbed(c.rtt, c.bufferBDP)
	tb.PerPairRTT = []time.Duration{c.rtt, 30 * time.Millisecond, 60 * time.Millisecond, 120 * time.Millisecond, 180 * time.Millisecond}
	j := runner.TestbedJob{Testbed: tb, Flows: []runner.TestbedFlow{{Pair: 0, Algo: c.largeAlgo, Size: c.largeSize}}}
	for i := 0; i < 12; i++ {
		j.Flows = append(j.Flows, runner.TestbedFlow{
			Pair:  1 + i%4,
			Algo:  c.smallAlgo,
			Size:  2 << 20,
			Start: time.Duration(i+1) * 2 * time.Second,
		})
	}
	// Horizon: long enough for the large flow at a contended 50 Mbps.
	j.Horizon = time.Duration(float64(float64(c.largeSize*8)/tb.BtlRate*3)+30) * time.Second
	return j
}

// result folds the cell's run; it panics if a flow did not complete.
func (c fig16Cell) result(run runner.TestbedResult) Fig16Result {
	res := Fig16Result{LargeAlgo: c.largeAlgo, SmallAlgo: c.smallAlgo, RTT: c.rtt, BufferBDP: c.bufferBDP}
	for i, f := range run.Flows {
		if !f.Completed {
			panic(fmt.Sprintf("experiments: Fig. 16 flow %d did not complete; raise the horizon", i))
		}
		if i == 0 {
			res.LargeFCT = f.FCT.Seconds()
		} else {
			res.SmallFCTs = append(res.SmallFCTs, f.FCT.Seconds())
		}
	}
	for _, v := range run.Bins[0].Rate() {
		res.LargeGoodput = append(res.LargeGoodput, v*8)
	}
	return res
}

// Table1Row is one line of Table 1 for a given large-flow CCA.
type Table1Row struct {
	BufferBDP float64
	RTT       time.Duration
	// Off/On are the SUSS-off / SUSS-on measurements.
	LargeFCTOff, SmallFCTOff float64
	LargeFCTOn, SmallFCTOn   float64
	// ImprovementSmall is (off−on)/off for the small flows' mean FCT.
	ImprovementSmall float64
	// LargeFCTDelta is the relative change in large-flow FCT (the
	// paper's stability criterion: ≈0).
	LargeFCTDelta float64
}

// Table1Result is one of the paper's three sub-tables.
type Table1Result struct {
	LargeAlgo runner.Algo
	Rows      []Table1Row
	// Failed lists configurations whose testbed run crashed or did not
	// complete; their rows are omitted.
	Failed []string
}

// RunTable1 sweeps buffer ∈ {1,2} BDP × RTT ∈ {25,50,100,200} ms for a
// large-flow CCA, with the small flows on CUBIC ± SUSS. The 16
// independent testbed runs (8 configs × off/on) are declared as one
// item slice and fanned out across the worker pool; a crashing run
// drops its config into Failed instead of aborting the table.
func RunTable1(largeAlgo runner.Algo, largeSize int64, opt runner.Options) Table1Result {
	var cells []fig16Cell
	for _, buf := range []float64{1, 2} {
		for _, rttMs := range []int{25, 50, 100, 200} {
			for _, small := range []runner.Algo{runner.Cubic, runner.Suss} {
				cells = append(cells, fig16Cell{largeAlgo, small, time.Duration(rttMs) * time.Millisecond, buf, largeSize})
			}
		}
	}
	outs := runner.Map(context.Background(), cells, func(ctx context.Context, _ int, c fig16Cell) (Fig16Result, error) {
		return c.result(runner.ScratchFrom(ctx).RunTestbed(c.job())), nil
	}, opt)

	res := Table1Result{LargeAlgo: largeAlgo}
	for i := 0; i < len(cells); i += 2 {
		c, off, on := cells[i], outs[i], outs[i+1]
		if err := off.Err; err != nil || on.Err != nil {
			if err == nil {
				err = on.Err
			}
			res.Failed = append(res.Failed, fmt.Sprintf("buffer=%.1fBDP minRTT=%v: %v", c.bufferBDP, c.rtt, err))
			continue
		}
		row := Table1Row{
			BufferBDP:   c.bufferBDP,
			RTT:         c.rtt,
			LargeFCTOff: off.Value.LargeFCT,
			SmallFCTOff: stats.Mean(off.Value.SmallFCTs),
			LargeFCTOn:  on.Value.LargeFCT,
			SmallFCTOn:  stats.Mean(on.Value.SmallFCTs),
		}
		row.ImprovementSmall = Improvement(row.SmallFCTOff, row.SmallFCTOn)
		row.LargeFCTDelta = (row.LargeFCTOn - row.LargeFCTOff) / row.LargeFCTOff
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Render prints the sub-table.
func (r Table1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1 — large flow on %s, twelve 2MB CUBIC flows ± SUSS\n", r.LargeAlgo)
	fmt.Fprintf(&b, "  %-6s %-7s %10s %10s %10s %10s %8s %8s\n",
		"buffer", "minRTT", "largeOff", "smallOff", "largeOn", "smallOn", "smallImp", "largeΔ")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-6.1f %-7s %9.1fs %9.2fs %9.1fs %9.2fs %7.0f%% %7.1f%%\n",
			row.BufferBDP, row.RTT, row.LargeFCTOff, row.SmallFCTOff,
			row.LargeFCTOn, row.SmallFCTOn, 100*row.ImprovementSmall, 100*row.LargeFCTDelta)
	}
	for _, f := range r.Failed {
		fmt.Fprintf(&b, "  FAILED %s\n", f)
	}
	return b.String()
}

// Render prints the Fig. 16 view: the large flow's goodput trace with
// the small-flow dips, plus the small-flow completion times.
func (r Fig16Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 16 — large %s flow vs twelve 2MB %s flows (minRTT %v, buffer %.1f BDP)\n",
		r.LargeAlgo, r.SmallAlgo, r.RTT, r.BufferBDP)
	fmt.Fprintf(&b, "  large FCT %.1fs; small FCTs mean %.2fs\n", r.LargeFCT, stats.Mean(r.SmallFCTs))
	fmt.Fprintf(&b, "  large-flow goodput (Mbps/s): ")
	for i, g := range r.LargeGoodput {
		if i >= 30 {
			fmt.Fprintf(&b, "…")
			break
		}
		fmt.Fprintf(&b, "%.0f ", g/1e6)
	}
	b.WriteString("\n")
	return b.String()
}
