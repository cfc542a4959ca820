package cc

import (
	"math"
	"time"
)

// RenoOptions configures the classic AIMD controller.
type RenoOptions struct {
	// IW is the initial window in segments (default 10, RFC 6928 —
	// matching the other controllers so cross-algorithm comparisons
	// isolate the growth policy, not the first flight).
	IW int
}

// DefaultRenoOptions returns the defaults.
func DefaultRenoOptions() RenoOptions { return RenoOptions{IW: 10} }

// Reno is classic NewReno-style AIMD (RFC 5681): slow start doubles
// the window each round, congestion avoidance adds one segment per
// round trip, fast retransmit halves, a timeout collapses to one
// segment. It is the yardstick baseline — every other controller in
// the tree (CUBIC, SUSS, BBR) is positioned against exactly this
// growth curve, so the experiments matrix and the chaos catalog carry
// it to make "how much faster than stock AIMD" a measured number
// instead of folklore.
type Reno struct {
	env Env
	opt RenoOptions

	cwnd     float64 // segments
	ssthresh float64 // segments

	// undo snapshots the pre-RTO window for Undoer (F-RTO/Eifel).
	undoValid              bool
	undoCwnd, undoSsthresh float64
}

// NewReno creates the controller bound to the transport environment.
func NewReno(env Env, opt RenoOptions) *Reno {
	r := new(Reno)
	r.Reset(env, opt)
	return r
}

// Reset makes r the controller NewReno(env, opt) returns.
func (r *Reno) Reset(env Env, opt RenoOptions) {
	if opt.IW <= 0 {
		opt.IW = 10
	}
	*r = Reno{
		env:      env,
		opt:      opt,
		cwnd:     float64(opt.IW),
		ssthresh: math.MaxFloat64,
	}
}

// CwndBytes implements Controller.
func (r *Reno) CwndBytes() int64 { return int64(r.cwnd * float64(r.env.MSS())) }

// CwndSegments returns the window in segments (tests).
func (r *Reno) CwndSegments() float64 { return r.cwnd }

// SsthreshSegments returns the slow-start threshold in segments.
func (r *Reno) SsthreshSegments() float64 { return r.ssthresh }

// PacingRate implements Controller: Reno is purely ACK-clocked.
func (r *Reno) PacingRate() float64 { return 0 }

// InSlowStart implements Controller.
func (r *Reno) InSlowStart() bool { return r.cwnd < r.ssthresh }

// OnPacketSent implements Controller.
func (r *Reno) OnPacketSent(now time.Duration, size int, seq int64, retrans bool) {}

// OnAck implements Controller: +1 segment per acked segment in slow
// start, +1 segment per window of ACKs in congestion avoidance
// (RFC 5681 §3.1, the byte-counting form). Growth freezes during fast
// recovery, matching the transport's one-loss-event-per-round
// contract.
func (r *Reno) OnAck(ev AckEvent) {
	if ev.InRecovery {
		return
	}
	acked := float64(ev.AckedBytes) / float64(r.env.MSS())
	if r.InSlowStart() {
		r.cwnd += acked
		if r.cwnd > r.ssthresh {
			r.cwnd = r.ssthresh // no overshoot past the threshold
		}
		return
	}
	r.cwnd += acked / r.cwnd
}

// OnLoss implements Controller: multiplicative decrease to half the
// flight, floor of two segments.
func (r *Reno) OnLoss(ev LossEvent) {
	r.undoValid = false // real congestion: the pre-RTO snapshot is stale
	half := float64(ev.Inflight) / float64(r.env.MSS()) / 2
	if half < 2 {
		half = 2
	}
	r.ssthresh = half
	r.cwnd = half
}

// OnRTO implements Controller: loss window of one segment, slow start
// back toward half the pre-timeout window.
func (r *Reno) OnRTO(now time.Duration) {
	r.undoValid = true
	r.undoCwnd, r.undoSsthresh = r.cwnd, r.ssthresh
	half := r.cwnd / 2
	if half < 2 {
		half = 2
	}
	r.ssthresh = half
	r.cwnd = 1
}

// UndoRTO implements Undoer: restore the snapshot taken by the most
// recent OnRTO. No-op once the window closed (an OnLoss since, or
// already undone).
func (r *Reno) UndoRTO(now time.Duration) {
	if !r.undoValid {
		return
	}
	r.undoValid = false
	r.cwnd, r.undoCwnd = r.undoCwnd, 0
	r.ssthresh, r.undoSsthresh = r.undoSsthresh, 0
}
