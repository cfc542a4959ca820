package suss

import (
	"fmt"

	"suss/internal/experiments"
	"suss/internal/runner"
)

// WorkloadStats summarizes per-flow completion times for one variant
// of a workload run (seconds).
type WorkloadStats struct {
	MeanFCT float64
	P95FCT  float64
}

// WorkloadResult compares CUBIC and CUBIC+SUSS on a realistic
// mice-and-elephants web mix sharing a 50 Mbps bottleneck — the
// traffic regime the paper's introduction motivates.
type WorkloadResult struct {
	Flows int
	// Off/On hold the SUSS-off / SUSS-on aggregates.
	AllOff, AllOn     WorkloadStats
	SmallOff, SmallOn WorkloadStats
	// SmallFlowImprovement is the mean per-flow FCT gain for flows
	// ≤ 1 MB (the paper's headline population).
	SmallFlowImprovement float64
	// MeanImprovement is the mean per-flow gain across all flows.
	MeanImprovement float64
}

// RunWebWorkload launches n flows with heavy-tailed web-mix sizes and
// Poisson arrivals (arrivalRate flows/sec) over the local dumbbell
// testbed, once per variant, and compares per-flow FCTs.
func RunWebWorkload(n int, arrivalRate float64, seed int64) (WorkloadResult, error) {
	if n <= 0 || arrivalRate <= 0 {
		return WorkloadResult{}, fmt.Errorf("suss: need positive flow count and arrival rate")
	}
	r := experiments.RunWebMix(n, arrivalRate, seed, runner.Options{})
	return WorkloadResult{
		Flows:                r.Flows,
		AllOff:               WorkloadStats{MeanFCT: r.All[0].Mean, P95FCT: r.All[0].P95},
		AllOn:                WorkloadStats{MeanFCT: r.All[1].Mean, P95FCT: r.All[1].P95},
		SmallOff:             WorkloadStats{MeanFCT: r.Small[0].Mean, P95FCT: r.Small[0].P95},
		SmallOn:              WorkloadStats{MeanFCT: r.Small[1].Mean, P95FCT: r.Small[1].P95},
		SmallFlowImprovement: r.SmallImprovement,
		MeanImprovement:      r.MeanImprovement,
	}, nil
}
