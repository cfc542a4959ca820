package experiments

import (
	"context"
	"fmt"
	"strings"

	"suss/internal/netem"
	"suss/internal/runner"
	"suss/internal/scenarios"
	"suss/internal/stats"
)

// Fig14Result reproduces Fig. 14: packet-loss rate vs flow size for
// CUBIC with SUSS on/off (Oracle London server, 5G client in Sweden).
// SUSS's pacing reduces loss during slow start; the curves converge as
// flows grow and steady-state losses dominate.
type Fig14Result struct {
	Sizes []int64
	// Loss[variant][i]: mean loss rate, variant 0 = off, 1 = on.
	Loss [2][]float64
	// Incomplete counts downloads that never finished.
	Incomplete int
}

// RunFig14 declares the sizes × variants × iterations sweep as one job
// slice. Loss rates are measured on every run — Fig. 14 plots link
// behaviour, not completion — so this fold averages over all of them
// rather than fold's completed runs; non-completing flows are still
// counted so the caller can fail loudly.
func RunFig14(sizes []int64, iters int, seed int64, opt runner.Options) Fig14Result {
	res := Fig14Result{Sizes: sizes}
	sc := scenarios.New(scenarios.OracleLondon, netem.NR5G, seed)
	// The London/5G cell already carries the shallow Oracle-egress
	// buffer calibration (see scenarios.New); tighten slightly so the
	// 2 MB point still shows slow-start loss.
	sc.LastHop.BufferBDPs = 0.25

	out := runner.Run(context.Background(), sweep(nil, sc, sizes, offOn, iters), opt)
	rates := make([]float64, iters)
	for g := range len(sizes) * len(offOn) { // size g/2, variant g%2
		for it, r := range out[g*iters:][:iters] {
			if r.Err != nil {
				res.Incomplete++
			}
			rates[it] = r.LossRate
		}
		res.Loss[g%2] = append(res.Loss[g%2], stats.Mean(rates))
	}
	return res
}

// Render prints the two loss curves.
func (r Fig14Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 14 — packet loss vs flow size (London server, 5G client)\n")
	fmt.Fprintf(&b, "  %-8s %12s %12s\n", "size", "SUSS off", "SUSS on")
	for i, size := range r.Sizes {
		fmt.Fprintf(&b, "  %-8s %11.3f%% %11.3f%%\n",
			SizeLabel(size), 100*r.Loss[0][i], 100*r.Loss[1][i])
	}
	if r.Incomplete > 0 {
		fmt.Fprintf(&b, "  WARNING: %d download(s) did not complete\n", r.Incomplete)
	}
	return b.String()
}
