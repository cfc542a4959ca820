package tcp

import "time"

// rttEstimator implements RFC 6298 smoothed RTT and RTO computation.
type rttEstimator struct {
	srtt   time.Duration
	rttvar time.Duration
	minRTO time.Duration
	maxRTO time.Duration

	backoff uint // consecutive RTO fires
	hasRTT  bool
}

// Update folds in a fresh RTT sample, resetting any RTO backoff.
func (r *rttEstimator) Update(sample time.Duration) {
	if sample <= 0 {
		return
	}
	if !r.hasRTT {
		r.srtt = sample
		r.rttvar = sample / 2
		r.hasRTT = true
	} else {
		// RFC 6298: RTTVAR = 3/4 RTTVAR + 1/4 |SRTT - R'|,
		// SRTT = 7/8 SRTT + 1/8 R'.
		delta := r.srtt - sample
		if delta < 0 {
			delta = -delta
		}
		r.rttvar = (3*r.rttvar + delta) / 4
		r.srtt = (7*r.srtt + sample) / 8
	}
	r.backoff = 0
}

// SRTT returns the smoothed RTT (0 before any sample).
func (r *rttEstimator) SRTT() time.Duration { return r.srtt }

// RTO returns the current retransmission timeout including backoff.
func (r *rttEstimator) RTO() time.Duration {
	var rto time.Duration
	if !r.hasRTT {
		rto = time.Second // RFC 6298 initial RTO
	} else {
		// Linux floors the variance term at rto_min rather than the
		// whole RTO: with a steady (bufferbloated) RTT, rttvar decays
		// toward zero and RTO ≈ SRTT would fire on every retransmit's
		// round trip.
		v := 4 * r.rttvar
		if v < r.minRTO {
			v = r.minRTO
		}
		rto = r.srtt + v
	}
	if rto < r.minRTO {
		rto = r.minRTO
	}
	for i := uint(0); i < r.backoff; i++ {
		rto *= 2
		if rto >= r.maxRTO {
			return r.maxRTO
		}
	}
	if rto > r.maxRTO {
		rto = r.maxRTO
	}
	return rto
}

// Backoff doubles the RTO for the next query (called when the
// retransmission timer fires).
func (r *rttEstimator) Backoff() { r.backoff++ }

// UndoBackoff clears the exponential backoff without waiting for a
// fresh sample — F-RTO calls it when a timeout is proven spurious, so
// the next RTO is computed from the (valid) SRTT again.
func (r *rttEstimator) UndoBackoff() { r.backoff = 0 }
