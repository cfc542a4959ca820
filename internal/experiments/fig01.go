package experiments

import (
	"fmt"
	"strings"
	"time"

	"suss/internal/netem"
	"suss/internal/runner"
	"suss/internal/scenarios"
)

// Fig01Result reproduces Fig. 1: a file download from a US cloud
// server to a NZ PC under CUBIC and BBRv2, showing slow-start
// under-utilization against the optimal rate θ = cwnd*/RTT.
type Fig01Result struct {
	Algos []runner.Algo
	// Theta is the steady-state delivery rate (bits/sec) per algo.
	Theta []float64
	// DeliveredAt has, per algo, delivered MB at the checkpoints.
	Checkpoints []time.Duration
	DeliveredAt [][]float64
	// OptimalAt is θ·t in MB (the dashed green line), per algo.
	OptimalAt [][]float64
	// RampLoss is the volume (MB) the slow start left on the table:
	// max over checkpoints of optimal − delivered.
	RampLoss []float64
}

// RunFig01 downloads size bytes over a 100 Mbps, 190 ms-RTT wired
// path (US-East → NZ) with CUBIC and BBRv2, tracing delivery.
func RunFig01(size int64, seed int64) Fig01Result {
	res := Fig01Result{
		Algos:       []runner.Algo{runner.Cubic, runner.BBR2},
		Checkpoints: []time.Duration{500 * time.Millisecond, time.Second, 2 * time.Second, 3 * time.Second, 5 * time.Second, 8 * time.Second},
	}
	sc := scenarios.Scenario{
		Server:   scenarios.GoogleUSEast,
		Link:     netem.Wired,
		RTT:      190 * time.Millisecond,
		LastHop:  netem.DefaultProfile(netem.Wired, 1e8),
		CoreRate: 1e9,
		Seed:     seed,
	}
	for _, algo := range res.Algos {
		r, tr := downloadTrace(runner.Job{Scenario: sc, Algo: algo, Size: size, Horizon: 5 * time.Minute}, 10*time.Millisecond)

		// θ: delivery rate over the steady half of the transfer.
		half := tr.At(r.FCT / 2)
		end := tr.Samples[len(tr.Samples)-1]
		theta := float64(end.Delivered-half.Delivered) * 8 / (end.T - half.T).Seconds()
		res.Theta = append(res.Theta, theta)

		var got, opt []float64
		var worst float64
		for _, cp := range res.Checkpoints {
			d := float64(float64(tr.At(cp).Delivered) / (1 << 20))
			o := theta / 8 * cp.Seconds() / (1 << 20)
			if o > float64(size)/(1<<20) {
				o = float64(size) / (1 << 20)
			}
			got = append(got, d)
			opt = append(opt, o)
			if o-d > worst {
				worst = o - d
			}
		}
		res.DeliveredAt = append(res.DeliveredAt, got)
		res.OptimalAt = append(res.OptimalAt, opt)
		res.RampLoss = append(res.RampLoss, worst)
	}
	return res
}

// Render prints the figure as rows.
func (r Fig01Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 1 — slow-start under-utilization (100 Mbps, 190 ms RTT)\n")
	for i, a := range r.Algos {
		fmt.Fprintf(&b, "  %-10s theta=%.1f Mbps  ramp deficit=%.1f MB\n", a, r.Theta[i]/1e6, r.RampLoss[i])
		for j, cp := range r.Checkpoints {
			fmt.Fprintf(&b, "    t=%-6s delivered=%6.2f MB  optimal=%6.2f MB\n",
				cp, r.DeliveredAt[i][j], r.OptimalAt[i][j])
		}
	}
	return b.String()
}
