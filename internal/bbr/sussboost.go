package bbr

import (
	"time"

	"suss/internal/cc"
)

// sussBoost implements the paper's §7 future-work direction:
// integrating SUSS's growth prediction with BBR's STARTUP. BBR, like
// CUBIC, roughly doubles its in-flight data per round during STARTUP
// (the 2/ln 2 pacing gain against a one-round-delayed bandwidth
// estimate), so it under-utilizes large-BDP paths in the early RTTs
// for exactly the reason §1 describes.
//
// Adapting SUSS's two conditions to BBR is not a transliteration:
// because BBR paces every flight across the whole round, there is no
// compressed ACK train to measure — ΔtBat ≈ RTT always, and Condition
// 1 in its CUBIC form never fires. The equivalent BBR-native signal
// for "exponential growth continues next round" is the bandwidth
// estimate itself:
//
//   - Condition 1: the windowed bandwidth estimate grew by ≥ 50 % over
//     the last round (the doubling feedback loop is still running; as
//     the pipe fills the estimate plateaus and the condition fails,
//     exactly as the ACK train lengthening stops CUBIC's SUSS).
//   - Condition 2: the round's minimum RTT, extrapolated one round
//     forward, must stay below 1.125 × minRTT (unchanged). minRTT and
//     the round it was set in are the host's cc.Rounds.
//
// When both hold, the round's gains are doubled: pacing_gain
// 2.885 → 5.77 and cwnd_gain 2 → 4, so the flight quadruples per round
// instead of doubling. The burst-control half of SUSS is unnecessary
// here — BBR's native pacing already spreads the extra packets, which
// is why the paper calls the integration "promising". Any loss or
// the end of STARTUP permanently disables the boost.
type sussBoost struct {
	// moRTT is the minimum RTT since the last round start; unlike
	// Rounds.RoundMin it counts the ACK that ends a round in the round
	// it ends.
	moRTT  time.Duration
	lastBW float64 // bandwidth estimate at the last round start

	boosted  bool // current round runs with doubled gains
	disabled bool
}

const (
	// boostGrowthThresh is the per-round bandwidth-estimate growth that
	// signals the doubling loop is still running (doubling gives 2.0;
	// 1.5 tolerates sampling noise while still failing fast at the
	// plateau).
	boostGrowthThresh = 1.5
	boostDelayFactor  = 1.125
	boostGain         = 2.0
)

// onAck folds the ACK's RTT sample; call before the rounds roll.
func (sb *sussBoost) onAck(ev cc.AckEvent) {
	if ev.RTT > 0 && (sb.moRTT == 0 || ev.RTT < sb.moRTT) {
		sb.moRTT = ev.RTT
	}
}

// onRoundStart rolls the round state and decides whether to boost the
// new round r.N; bwNow is the current windowed bandwidth estimate
// (bits/sec).
func (sb *sussBoost) onRoundStart(r *cc.Rounds, inStartup bool, bwNow float64) {
	prevMoRTT := sb.moRTT
	prevBW := sb.lastBW

	sb.boosted = false
	if !sb.disabled && inStartup && r.Min > 0 && prevBW > 0 && bwNow > 0 {
		// Condition 1 (BBR form): the estimate is still growing
		// near-exponentially, so next round's growth is predicted to
		// continue.
		c1 := bwNow >= boostGrowthThresh*prevBW
		// Condition 2 (Eq. 8): extrapolate the observed queueing drift.
		c2 := true
		if n := r.N - r.MinRound; n > 0 && prevMoRTT > 0 {
			projected := prevMoRTT + time.Duration(float64(prevMoRTT-r.Min)/float64(n))
			c2 = float64(projected) <= boostDelayFactor*float64(r.Min)
		}
		sb.boosted = c1 && c2
	}

	sb.lastBW = bwNow
	sb.moRTT = 0
}

// gainMultiplier returns the factor applied to STARTUP's pacing and
// cwnd gains this round.
func (sb *sussBoost) gainMultiplier() float64 {
	if sb.boosted {
		return boostGain
	}
	return 1
}

// disable turns the boost off for the rest of the connection (loss, or
// STARTUP ended).
func (sb *sussBoost) disable() {
	sb.disabled = true
	sb.boosted = false
}
