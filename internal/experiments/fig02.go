package experiments

import (
	"fmt"
	"strings"
	"time"

	"suss/internal/runner"
	"suss/internal/scenarios"
	"suss/internal/stats"
)

// NeverReached marks a share threshold the late joiner did not
// sustain within the experiment horizon. It renders as "not reached"
// rather than a bogus negative duration.
const NeverReached = time.Duration(-1)

// Fig02Result reproduces Fig. 2: a new flow joining four established
// flows at a shared 50 Mbps bottleneck, under CUBIC and BBR. The paper
// uses it to motivate SUSS: CUBIC's loss-sensitive slow start keeps
// the late joiner below its fair share for a long time.
type Fig02Result struct {
	Algo runner.Algo
	// JoinAt is when the fifth flow started.
	JoinAt time.Duration
	// FairShare is the per-flow fair rate (bottleneck / 5), bits/sec.
	FairShare float64
	// Share is the joiner's goodput / fair share, per 1 s bin after
	// the join.
	Share []float64
	// TimeToHalfShare and TimeToFairShare are how long after joining
	// the new flow first sustains 50% / 80% of its fair share
	// (NeverReached if never within the horizon).
	TimeToHalfShare time.Duration
	TimeToFairShare time.Duration
}

// RunFig02 runs the late-joiner experiment for one algorithm family
// (all five flows use it).
func RunFig02(algo runner.Algo, rtt time.Duration, bufferBDP float64, joinAt, horizon time.Duration) Fig02Result {
	tb := scenarios.DefaultTestbed(rtt, bufferBDP)
	run := runTestbeds(lateJoiner(algo, tb, joinAt, horizon))[0]

	res := Fig02Result{Algo: algo, JoinAt: joinAt, FairShare: tb.BtlRate / 5}
	joinBin := int(joinAt / time.Second)
	bins := run.Bins[4].Rate()
	res.TimeToHalfShare = NeverReached
	res.TimeToFairShare = NeverReached
	for i := joinBin; i < len(bins); i++ {
		share := bins[i] * 8 / res.FairShare
		res.Share = append(res.Share, share)
		since := time.Duration(i-joinBin) * time.Second
		if res.TimeToHalfShare == NeverReached && share >= 0.5 {
			res.TimeToHalfShare = since
		}
		if res.TimeToFairShare == NeverReached && share >= 0.8 {
			res.TimeToFairShare = since
		}
	}
	return res
}

// lateJoiner is the testbed cell of Figs. 2 and 15: four flows under
// algo started 2 s apart on pairs 0–3, and a fifth joining on pair 4
// at joinAt, all unbounded.
func lateJoiner(algo runner.Algo, tb scenarios.Testbed, joinAt, horizon time.Duration) runner.TestbedJob {
	j := runner.TestbedJob{Testbed: tb, Horizon: horizon}
	for i := 0; i < 4; i++ {
		j.Flows = append(j.Flows, runner.TestbedFlow{Pair: i, Algo: algo, Start: time.Duration(i) * 2 * time.Second})
	}
	j.Flows = append(j.Flows, runner.TestbedFlow{Pair: 4, Algo: algo, Start: joinAt})
	return j
}

// Render prints the joiner's share curve.
func (r Fig02Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 2 — late joiner under %s (join at %v, fair share %.1f Mbps)\n",
		r.Algo, r.JoinAt, r.FairShare/1e6)
	fmt.Fprintf(&b, "  time to 50%% share: %s, time to 80%% share: %s\n",
		fmtReached(r.TimeToHalfShare), fmtReached(r.TimeToFairShare))
	n := len(r.Share)
	if n > 12 {
		n = 12
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "    +%2ds  share=%5.2f\n", i, r.Share[i])
	}
	return b.String()
}

func fmtReached(d time.Duration) string {
	if d == NeverReached {
		return "not reached"
	}
	return d.String()
}

// Fig02Mean summarizes a share curve (for benches).
func (r Fig02Result) Fig02Mean(first int) float64 {
	if first > len(r.Share) {
		first = len(r.Share)
	}
	return stats.Mean(r.Share[:first])
}
