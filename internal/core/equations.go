package core

import "time"

// The paper's equations as pure functions. Each keeps the floating-point
// operation order the controller has always used, so results are
// bit-stable.

// trainRatio is Eq. 9's scale from the blue ACK train to the full data
// train: cwnd_{i-1}/S_Bdt_{i-1}, at least 1.
func trainRatio(prevCwnd, prevBlue int64) float64 {
	if prevBlue <= 0 || prevCwnd <= prevBlue {
		return 1
	}
	return float64(prevCwnd) / float64(prevBlue)
}

// ackTrainBound is Condition 1's bound for growing through k more
// rounds (Eq. 17; Eq. 6 at k = 1): ΔtAt ≤ frac·minRTT/2^k.
func ackTrainBound(minRTT time.Duration, frac float64, k int) time.Duration {
	return time.Duration(float64(minRTT) * frac / float64(int64(1)<<k))
}

// projectedRTT is Eq. 19: moRTT extrapolated k rounds ahead along the
// drift it gained over the r rounds since minRTT was set.
func projectedRTT(moRTT, minRTT time.Duration, k, r int) time.Duration {
	return moRTT + time.Duration(float64(k)*float64(moRTT-minRTT)/float64(r))
}

// paceRate is Eq. 11's pacing rate in bits/sec: cwnd_i per minRTT.
func paceRate(cwnd int64, minRTT time.Duration) float64 {
	return float64(cwnd*8) / minRTT.Seconds()
}

// paceTime is how long Eq. 11's rate takes to release n of the round's
// cwnd bytes: the pacing period for S_Rdt, the tick interval for one
// MSS.
func paceTime(minRTT time.Duration, n, cwnd int64) time.Duration {
	return time.Duration(float64(minRTT) * float64(n) / float64(cwnd))
}

// guardInterval is Eq. 12: minRTT·S_Bdt/(2·cwnd_i) − ΔtBat/2, never
// negative.
func guardInterval(minRTT time.Duration, sBdt, cwnd int64, dtBat time.Duration) time.Duration {
	return max(time.Duration(float64(minRTT)*float64(sBdt)/(2*float64(cwnd)))-dtBat/2, 0)
}
