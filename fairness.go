package suss

import (
	"fmt"
	"time"

	"suss/internal/experiments"
	"suss/internal/runner"
)

// FairnessConfig describes the paper's Fig. 15 workload on the local
// dumbbell testbed: four established flows, a fifth joining later,
// Jain's index watched over time.
type FairnessConfig struct {
	// RTT is the flows' base round-trip time (paper: 25–200 ms).
	RTT time.Duration
	// BufferBDP sizes the 50 Mbps bottleneck's buffer (paper: 1–2).
	BufferBDP float64
	// JoinAt is when the fifth flow starts (default 30 s).
	JoinAt time.Duration
	// Horizon ends the simulation (default JoinAt + 30 s).
	Horizon time.Duration
	// WithSUSS applies SUSS to all five (CUBIC) flows.
	WithSUSS bool
}

// FairnessResult reports how bandwidth sharing recovered after the
// fifth flow joined.
type FairnessResult struct {
	// Jain is Jain's fairness index per second from the join onward.
	Jain []float64
	// RecoveryTime is how long until the index returned above 0.95
	// (-1 if it never did within the horizon).
	RecoveryTime time.Duration
	// MeanPostJoin averages the index over the post-join window.
	MeanPostJoin float64
}

// RunFairness runs the late-joiner fairness experiment.
func RunFairness(cfg FairnessConfig) (FairnessResult, error) {
	if cfg.RTT <= 0 {
		return FairnessResult{}, fmt.Errorf("suss: RTT must be positive")
	}
	if cfg.BufferBDP <= 0 {
		cfg.BufferBDP = 1
	}
	if cfg.JoinAt <= 0 {
		cfg.JoinAt = 30 * time.Second
	}
	if cfg.Horizon <= cfg.JoinAt {
		cfg.Horizon = cfg.JoinAt + 30*time.Second
	}
	algo := runner.Cubic
	if cfg.WithSUSS {
		algo = runner.Suss
	}
	var r FairnessResult
	r.Jain, r.RecoveryTime, r.MeanPostJoin = experiments.RunFig15Variant(
		experiments.Fig15Config{RTT: cfg.RTT, BufferBDP: cfg.BufferBDP}, algo, cfg.JoinAt, cfg.Horizon)
	return r, nil
}
