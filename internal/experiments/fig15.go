package experiments

import (
	"fmt"
	"strings"
	"time"

	"suss/internal/runner"
	"suss/internal/scenarios"
	"suss/internal/stats"
)

// Fig15Config is one of the twelve sub-figures: a minRTT and a
// bottleneck buffer depth.
type Fig15Config struct {
	RTT       time.Duration
	BufferBDP float64
}

// Fig15Configs mirrors the paper's grid: RTT ∈ {25, 50, 100, 200} ms ×
// buffer ∈ {1, 1.5, 2} BDP.
func Fig15Configs() []Fig15Config {
	var out []Fig15Config
	for _, buf := range []float64{1, 1.5, 2} {
		for _, rtt := range []time.Duration{25, 50, 100, 200} {
			out = append(out, Fig15Config{RTT: rtt * time.Millisecond, BufferBDP: buf})
		}
	}
	return out
}

// Fig15Result reproduces one sub-figure of Fig. 15: Jain's fairness
// index over time as a fifth flow joins four established flows, with
// SUSS off and on.
type Fig15Result struct {
	Config Fig15Config
	JoinAt time.Duration
	// Jain[variant] is the index per 1-second bin from the join
	// onward (variant 0 = SUSS off, 1 = on).
	Jain [2][]float64
	// RecoveryTime[variant] is how long after the join the index
	// first returns above 0.95 (NeverReached if never).
	RecoveryTime [2]time.Duration
	// MeanPostJoin[variant] is the average index over the post-join
	// window — higher is fairer.
	MeanPostJoin [2]float64
}

// RunFig15 runs both variants for one configuration as one pool batch.
func RunFig15(cfg Fig15Config, joinAt, horizon time.Duration) Fig15Result {
	res := Fig15Result{Config: cfg, JoinAt: joinAt}
	tb := scenarios.DefaultTestbed(cfg.RTT, cfg.BufferBDP)
	runs := runTestbeds(lateJoiner(runner.Cubic, tb, joinAt, horizon), lateJoiner(runner.Suss, tb, joinAt, horizon))
	for v, run := range runs {
		res.Jain[v], res.RecoveryTime[v], res.MeanPostJoin[v] = fairnessRecovery(run, joinAt)
	}
	return res
}

// RunFig15Variant runs one variant of a configuration, algo
// runner.Cubic for SUSS off or runner.Suss for on, and returns what
// Fig15Result holds for it.
func RunFig15Variant(cfg Fig15Config, algo runner.Algo, joinAt, horizon time.Duration) (jain []float64, recovery time.Duration, meanPostJoin float64) {
	tb := scenarios.DefaultTestbed(cfg.RTT, cfg.BufferBDP)
	return fairnessRecovery(runTestbeds(lateJoiner(algo, tb, joinAt, horizon))[0], joinAt)
}

// fairnessRecovery folds a late-joiner run into Jain's index per bin
// from the join, the time until it first returns above 0.95 and its
// post-join mean.
func fairnessRecovery(run runner.TestbedResult, joinAt time.Duration) (jain []float64, recovery time.Duration, mean float64) {
	series := stats.JainOverTime(run.Bins, true)
	joinBin := int(joinAt / time.Second)
	recovery = NeverReached
	for i := joinBin; i < len(series); i++ {
		jain = append(jain, series[i])
		if recovery == NeverReached && i > joinBin && series[i] >= 0.95 {
			recovery = time.Duration(i-joinBin) * time.Second
		}
	}
	return jain, recovery, stats.Mean(jain)
}

// Render prints the recovery metrics and the first seconds of the
// index curves.
func (r Fig15Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 15 — fairness, minRTT=%v buffer=%.1fBDP (join at %v)\n",
		r.Config.RTT, r.Config.BufferBDP, r.JoinAt)
	names := [2]string{"SUSS off", "SUSS on"}
	for v := 0; v < 2; v++ {
		fmt.Fprintf(&b, "  %-8s recovery(F≥0.95)=%-11s mean post-join F=%.3f\n",
			names[v], fmtReached(r.RecoveryTime[v]), r.MeanPostJoin[v])
	}
	n := len(r.Jain[0])
	if n > 10 {
		n = 10
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "    +%2ds  off=%.3f on=%.3f\n", i, r.Jain[0][i], r.Jain[1][i])
	}
	return b.String()
}
