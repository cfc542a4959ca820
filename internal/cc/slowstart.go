package cc

import "time"

// Rounds is a flow's round-trip bookkeeping, kept by the host
// controller and read by whatever runs on top of it (a slow-start
// policy, BBR's STARTUP boost). A round begins at the first ACK
// strictly beyond End, the sequence that was next to send when the
// previous round began (Linux after() semantics: the ACK carrying
// exactly End is the ending round's last); the flow's first ACK begins
// round 1.
type Rounds struct {
	N     int           // current round, 0 before the first ACK
	Start time.Duration // when round N began
	End   int64         // SndNxt when round N began

	Min      time.Duration // connection-lifetime minimum RTT
	MinRound int           // the round Min was last lowered in

	RoundMin time.Duration // minimum RTT sampled in round N (0: none yet)
	PrevMin  time.Duration // round N-1's RoundMin
	Samples  int           // RTT samples in round N
}

// Update folds one ACK in and reports whether it began a new round.
// The lifetime minimum is folded before the boundary, so a round's
// first ACK lowers Min in the round it ends; its sample is the new
// round's first in RoundMin and Samples.
func (r *Rounds) Update(ev AckEvent) (newRound bool) {
	if ev.RTT > 0 && (r.Min == 0 || ev.RTT < r.Min) {
		r.Min, r.MinRound = ev.RTT, r.N
	}
	if newRound = ev.CumAck > r.End || r.N == 0; newRound {
		r.N++
		r.Start, r.End = ev.Now, ev.SndNxt
		r.PrevMin, r.RoundMin, r.Samples = r.RoundMin, 0, 0
	}
	if ev.RTT > 0 {
		if r.RoundMin == 0 || ev.RTT < r.RoundMin {
			r.RoundMin = ev.RTT
		}
		r.Samples++
	}
	return newRound
}

// SlowStart is a slow-start policy: how the window grows on a
// slow-start ACK and when slow start ends. Its host keeps the window
// and the flow's Rounds (already updated for ev) and hands the policy
// every ACK that arrives in slow start outside loss recovery:
// ackedSegs is what it acknowledged in segments, newRound whether it
// began a round.
type SlowStart interface {
	OnSlowStartAck(ev AckEvent, ackedSegs float64, newRound bool)
}
