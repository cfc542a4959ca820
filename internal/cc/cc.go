// Package cc defines the congestion-control hook interface between the
// transport sender (internal/tcp) and pluggable congestion controllers
// (internal/cubic, internal/core, internal/bbr), plus what those
// controllers share: the round tracker, the slow-start policy seam and
// the windowed min/max filters.
//
// The interface is modeled on the Linux tcp_congestion_ops / quic-go
// SendAlgorithm hooks: the transport reports sends, ACKs and losses;
// the controller answers with a congestion window and an optional
// pacing rate.
package cc

import "time"

// Timer is a cancellable scheduled event. netsim.Timer satisfies it.
type Timer interface {
	// Stop cancels the timer, reporting whether it prevented the fire.
	Stop() bool
	// Active reports whether the timer is still pending.
	Active() bool
}

// Env is the runtime the transport lends to a controller: a clock, a
// scheduler for controller-driven events (pacing ticks), and a Kick to
// make the sender re-evaluate transmission opportunities after the
// controller changes state asynchronously.
type Env interface {
	Now() time.Duration
	Schedule(d time.Duration, fn func()) Timer
	// Kick asks the sender to try sending now (e.g. after the
	// controller opened the window outside an ACK callback).
	Kick()
	// MSS returns the maximum segment payload size in bytes.
	MSS() int
}

// AckEvent carries everything a controller may need when an ACK
// advances the flow.
type AckEvent struct {
	Now time.Duration
	// AckedBytes is the volume newly acknowledged (cumulative + SACK)
	// by this ACK.
	AckedBytes int
	// CumAck is the cumulative acknowledgment point (bytes).
	CumAck int64
	// SndNxt is the highest sequence the sender has sent so far.
	SndNxt int64
	// RTT is this ACK's round-trip sample; zero when the ACK carried
	// no usable sample (e.g. for a retransmitted segment).
	RTT time.Duration
	// Inflight is bytes outstanding after processing this ACK.
	Inflight int64
	// Delivered is the total bytes delivered so far (monotonic).
	Delivered int64
	// AppLimited reports that the sender had no data waiting when the
	// acked segment was sent, so rate samples underestimate capacity.
	AppLimited bool
	// InRecovery reports that the transport is in fast-retransmit loss
	// recovery. Loss-based controllers freeze window growth; model-based
	// controllers (BBR) may keep estimating bandwidth.
	InRecovery bool
	// BW is a delivery-rate sample in bits/sec for a segment newly
	// acknowledged by this ACK — (delivered_now − delivered_at_send) /
	// flight_time, never from retransmitted segments. Zero when the
	// ACK produced no usable sample.
	BW float64
}

// LossEvent describes a fast-retransmit congestion event (not an RTO).
type LossEvent struct {
	Now time.Duration
	// Inflight is bytes outstanding when the loss was detected.
	Inflight int64
	// LostBytes is the volume newly marked lost.
	LostBytes int
	// SndNxt is the highest sequence sent.
	SndNxt int64
}

// Controller is a pluggable congestion-control algorithm.
type Controller interface {
	// OnPacketSent is invoked for every data transmission.
	OnPacketSent(now time.Duration, size int, seq int64, retrans bool)
	// OnAck is invoked for every ACK that makes progress.
	OnAck(ev AckEvent)
	// OnLoss is invoked when fast retransmit detects loss; the
	// transport guarantees at most one call per round trip.
	OnLoss(ev LossEvent)
	// OnRTO is invoked when the retransmission timer fires.
	OnRTO(now time.Duration)
	// CwndBytes returns the congestion window in bytes.
	CwndBytes() int64
	// PacingRate returns the send pacing rate in bits/sec; zero means
	// no pacing (pure window/ACK-clocked release).
	PacingRate() float64
	// InSlowStart reports whether the algorithm is in its startup
	// phase (used for tracing and experiment cut-offs).
	InSlowStart() bool
}

// Undoer is implemented by controllers that can revert the state
// collapse of their most recent OnRTO when the transport proves the
// timeout spurious (F-RTO / Eifel detection). The undo window closes
// at the next OnLoss or OnRTO: controllers only keep one snapshot, and
// a real congestion signal after the timeout makes the pre-RTO state
// stale. UndoRTO after the window closes is a no-op.
type Undoer interface {
	UndoRTO(now time.Duration)
}

// MinRTTTracker maintains the connection-lifetime minimum RTT (the
// transport's; controllers read Rounds.Min).
type MinRTTTracker struct {
	min   time.Duration
	setAt time.Duration
}

// Update folds in a sample, returning true if the minimum decreased
// (or was first set).
func (m *MinRTTTracker) Update(sample, now time.Duration) bool {
	if sample <= 0 {
		return false
	}
	if m.min == 0 || sample < m.min {
		m.min = sample
		m.setAt = now
		return true
	}
	return false
}

// Get returns the current minimum (zero if no samples yet).
func (m *MinRTTTracker) Get() time.Duration { return m.min }

// SetAt returns when the minimum was last lowered.
func (m *MinRTTTracker) SetAt() time.Duration { return m.setAt }
