package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"suss/internal/runner"
	"suss/internal/scenarios"
	"suss/internal/stats"
	"suss/internal/workload"
)

// WebMixResult measures SUSS on the traffic regime the paper's
// introduction motivates: a mice-dominated web mix sharing a
// bottleneck, where most flows live and die inside slow start.
type WebMixResult struct {
	Flows int
	// Per-variant (0 = SUSS off, 1 = on) FCT summaries in seconds.
	All   [2]stats.Summary
	Small [2]stats.Summary // flows ≤ 1 MB
	Large [2]stats.Summary // flows > 1 MB
	// MeanImprovement aggregates per-flow relative gains (same flow
	// sizes and arrival times under both variants).
	MeanImprovement   float64
	MedianImprovement float64
	SmallImprovement  float64
}

// RunWebMix launches n flows with WebMix sizes and Poisson arrivals
// across the local dumbbell's five pairs, once with CUBIC and once
// with CUBIC+SUSS, and compares per-flow FCTs.
func RunWebMix(n int, arrivalRate float64, seed int64) WebMixResult {
	rng := rand.New(rand.NewSource(seed))
	dist := workload.WebMix()
	sizes := make([]int64, n)
	for i := range sizes {
		sizes[i] = dist.Sample(rng)
	}
	arrivals := workload.Arrivals{Rate: arrivalRate}.Schedule(rng, n, 100*time.Millisecond)

	tb := scenarios.DefaultTestbed(100*time.Millisecond, 1)
	var jobs [2]runner.TestbedJob
	for variant, v := range offOn {
		jobs[variant] = runner.TestbedJob{Testbed: tb, Flows: make([]runner.TestbedFlow, n), Horizon: arrivals[n-1] + 10*time.Minute}
		for i := range sizes {
			jobs[variant].Flows[i] = runner.TestbedFlow{Pair: i % tb.Pairs, Algo: v.Algo, Size: sizes[i], Start: arrivals[i]}
		}
	}
	res := WebMixResult{Flows: n}
	var fcts [2][]float64
	for variant, run := range runTestbeds(jobs[:]...) {
		var small, large []float64
		for i, f := range run.Flows {
			if !f.Completed {
				panic(fmt.Sprintf("experiments: web-mix flow %d did not complete", i))
			}
			fct := f.FCT.Seconds()
			fcts[variant] = append(fcts[variant], fct)
			if sizes[i] <= 1<<20 {
				small = append(small, fct)
			} else {
				large = append(large, fct)
			}
		}
		res.All[variant] = stats.Summarize(fcts[variant])
		res.Small[variant] = stats.Summarize(small)
		res.Large[variant] = stats.Summarize(large)
	}

	var gains, smallGains []float64
	for i := range sizes {
		g := Improvement(fcts[0][i], fcts[1][i])
		gains = append(gains, g)
		if sizes[i] <= 1<<20 {
			smallGains = append(smallGains, g)
		}
	}
	res.MeanImprovement = stats.Mean(gains)
	sort.Float64s(gains)
	res.MedianImprovement = stats.Percentile(gains, 50)
	res.SmallImprovement = stats.Mean(smallGains)
	return res
}

// Render prints the comparison.
func (r WebMixResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Web-mix workload — %d Poisson flows over the local testbed\n", r.Flows)
	row := func(label string, s [2]stats.Summary) {
		fmt.Fprintf(&b, "  %-14s off: mean=%.3fs p95=%.3fs   on: mean=%.3fs p95=%.3fs\n",
			label, s[0].Mean, s[0].P95, s[1].Mean, s[1].P95)
	}
	row("all flows", r.All)
	row("small (≤1MB)", r.Small)
	row("large (>1MB)", r.Large)
	fmt.Fprintf(&b, "  per-flow FCT gain: mean=%.1f%% median=%.1f%% small-flow mean=%.1f%%\n",
		100*r.MeanImprovement, 100*r.MedianImprovement, 100*r.SmallImprovement)
	return b.String()
}
