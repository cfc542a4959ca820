// Package cubic implements the CUBIC congestion-control algorithm
// (RFC 9438, Linux-style constants) as the host of a cc.SlowStart
// policy: classic HyStart (Ha & Rhee, "Taming the elephants") for the
// paper's "CUBIC, SUSS off" baseline, HyStart++ (RFC 9406), or SUSS
// (internal/core).
package cubic

import (
	"math"
	"time"

	"suss/internal/cc"
	"suss/internal/obs"
)

// Options configures CUBIC.
type Options struct {
	// IW is the initial window in segments (default 10, RFC 6928).
	IW int
	// C is the cubic scaling constant (default 0.4).
	C float64
	// Beta is the multiplicative decrease factor (default 0.7).
	Beta float64
	// HyStart enables the classic HyStart slow-start exit. A host
	// built with a policy of its own (SUSS) ignores it and HyStartPP.
	HyStart bool
	// HyStartPP selects HyStart++ (RFC 9406) instead of classic
	// HyStart: delay signals send slow start into a conservative phase
	// rather than ending it outright. Mutually exclusive with HyStart
	// (HyStartPP wins if both are set).
	HyStartPP bool
	// FastConvergence enables Wmax shrinking when losses cluster.
	FastConvergence bool
	// TCPFriendly enables the Reno-tracking lower bound region.
	TCPFriendly bool
}

// DefaultOptions mirrors the Linux defaults.
func DefaultOptions() Options {
	return Options{IW: 10, C: 0.4, Beta: 0.7, HyStart: true, FastConvergence: true, TCPFriendly: true}
}

// HyStart constants (Linux tcp_cubic.c).
const (
	hystartLowWindow      = 16                   // segments before HyStart engages
	hystartAckDelta       = 2 * time.Millisecond // ACK-train spacing
	hystartDelayMinThresh = 4 * time.Millisecond
	hystartDelayMaxThresh = 16 * time.Millisecond
	hystartMinSamples     = 8
)

// Cubic is a cc.Controller. Windows are tracked in segments
// (float64, like the kernel's fixed-point cwnd_cnt accounting) and
// exposed in bytes. In slow start every ACK outside recovery goes to
// its policy (nil: plain doubling), which ends slow start through
// ExitSlowStart.
type Cubic struct {
	env cc.Env
	opt Options

	cwnd     float64 // segments
	ssthresh float64 // segments

	// Cubic epoch state.
	wMax       float64
	k          float64
	epochStart time.Duration
	hasEpoch   bool
	ackCount   float64 // acked segments this epoch, for the Reno estimate
	wEst       float64

	rounds cc.Rounds
	srtt   time.Duration

	ss     cc.SlowStart
	hy     hyStart   // ss when classic HyStart runs
	hpp    hystartPP // ss when HyStart++ runs
	exited bool      // slow start ended by the policy (ssthresh set)

	// undo snapshots the window state at the last OnRTO so a spurious
	// timeout can be reverted (cc.Undoer).
	undo cubicUndo

	// ctr is the counter block of the flow env drives; rec, when
	// non-nil, receives slow-start exit events.
	ctr *obs.FlowCounters
	rec *obs.FlowRecorder
}

// AttachRecorder installs a flight recorder for this controller's
// events. Pass nil to detach.
func (c *Cubic) AttachRecorder(r *obs.FlowRecorder) { c.rec = r }

// New creates a CUBIC controller bound to the transport environment,
// running the slow-start policy opt selects.
func New(env cc.Env, opt Options) *Cubic {
	c := new(Cubic)
	c.Reset(env, opt, nil)
	return c
}

// Reset makes c the controller New(env, opt) returns, except that its
// slow start runs ss when ss is non-nil (a host built for a policy of
// its own, SUSS). A nil ss selects HyStart++, classic HyStart or plain
// doubling from opt. Every field is reset and the recorder detached.
func (c *Cubic) Reset(env cc.Env, opt Options, ss cc.SlowStart) {
	if opt.IW <= 0 {
		opt.IW = 10
	}
	if opt.C == 0 {
		opt.C = 0.4
	}
	if opt.Beta == 0 {
		opt.Beta = 0.7
	}
	*c = Cubic{
		env:      env,
		opt:      opt,
		cwnd:     float64(opt.IW),
		ssthresh: math.MaxFloat64 / 4,
		ss:       ss,
		ctr:      obs.CountersOf(env),
	}
	switch {
	case ss != nil:
	case opt.HyStartPP:
		c.hpp.c = c
		c.ss = &c.hpp
	case opt.HyStart:
		c.hy.c = c
		c.ss = &c.hy
	}
}

// CwndBytes implements cc.Controller.
func (c *Cubic) CwndBytes() int64 {
	return int64(c.cwnd * float64(c.env.MSS()))
}

// CwndSegments returns the window in segments.
func (c *Cubic) CwndSegments() float64 { return c.cwnd }

// SetCwndSegments overrides the window (tests).
func (c *Cubic) SetCwndSegments(w float64) {
	if w < 2 {
		w = 2
	}
	c.cwnd = w
}

// AddCwndSegments opens the window by n segments (a policy's growth).
func (c *Cubic) AddCwndSegments(n float64) { c.cwnd += n }

// SsthreshSegments returns the current slow-start threshold.
func (c *Cubic) SsthreshSegments() float64 { return c.ssthresh }

// InSlowStart implements cc.Controller.
func (c *Cubic) InSlowStart() bool { return c.cwnd < c.ssthresh }

// ExitSlowStart is every policy's exit: it pins ssthresh to the
// current window, ending exponential growth. Every call is counted,
// and recorded with its reason in the flight recorder.
func (c *Cubic) ExitSlowStart(now time.Duration, reason obs.HyStartReason) {
	if c.InSlowStart() {
		c.ssthresh = c.cwnd
		c.exited = true
	}
	c.ctr.HyStartExits++
	if r := c.rec; r != nil {
		r.Record(now, obs.EvHyStartExit, 0, 0, int64(reason), c.CwndBytes())
	}
}

// ExitedByHyStart reports whether slow start ended via the policy
// rather than loss.
func (c *Cubic) ExitedByHyStart() bool { return c.exited }

// Rounds returns the flow's round tracker, for the slow-start policy
// to read.
func (c *Cubic) Rounds() *cc.Rounds { return &c.rounds }

// PacingRate implements cc.Controller: CUBIC is ACK-clocked.
func (c *Cubic) PacingRate() float64 { return 0 }

// OnPacketSent implements cc.Controller.
func (c *Cubic) OnPacketSent(now time.Duration, size int, seq int64, retrans bool) {}

// OnAck implements cc.Controller.
func (c *Cubic) OnAck(ev cc.AckEvent) {
	if ev.RTT > 0 {
		c.srtt = ev.RTT
	}
	newRound := c.rounds.Update(ev)
	if ev.InRecovery {
		return
	}
	ackedSegs := float64(ev.AckedBytes) / float64(c.env.MSS())
	switch {
	case !c.InSlowStart():
		c.congestionAvoidance(ev.Now, ackedSegs)
	case c.ss != nil:
		c.ss.OnSlowStartAck(ev, ackedSegs, newRound)
	default:
		c.cwnd += ackedSegs
	}
}

// hyStart is classic HyStart: slow start doubles the window per round
// and ends on an ACK train spanning half the minimum RTT or on a delay
// rise over the round's first 8 samples. The train state belongs to
// round `round` and resets at the first slow-start ACK after the round
// moves, which may have rolled on a recovery ACK.
type hyStart struct {
	c       *Cubic
	round   int
	lastAck time.Duration
	currRTT time.Duration
	samples int
}

// OnSlowStartAck implements cc.SlowStart.
func (h *hyStart) OnSlowStartAck(ev cc.AckEvent, ackedSegs float64, _ bool) {
	c, r := h.c, &h.c.rounds
	c.cwnd += ackedSegs
	if h.round != r.N {
		h.round, h.lastAck, h.currRTT, h.samples = r.N, r.Start, 0, 0
	}
	if c.cwnd < hystartLowWindow || r.Min == 0 {
		return
	}
	now := ev.Now

	// (1) ACK-train detection: closely-spaced ACKs whose span from the
	// round start exceeds minRTT/2 mean the data train is as long as
	// half the path — time to stop doubling. The spacing test uses the
	// gap to the previous ACK (rather than Linux's last-qualifying-ACK
	// timestamp, which one jittery gap poisons for the whole round).
	gap := now - h.lastAck
	h.lastAck = now
	if gap <= hystartAckDelta && now-r.Start > r.Min/2 {
		c.ExitSlowStart(now, obs.ExitTrain)
		return
	}

	// (2) Delay detection: the minimum RTT over the first 8 samples of
	// the round exceeding minRTT by ~minRTT/8 signals queue build-up.
	if ev.RTT > 0 && h.samples < hystartMinSamples {
		if h.currRTT == 0 || ev.RTT < h.currRTT {
			h.currRTT = ev.RTT
		}
		h.samples++
		if h.samples >= hystartMinSamples && h.currRTT >= r.Min+delayThresh(r.Min) {
			c.ExitSlowStart(now, obs.ExitDelay)
		}
	}
}

// delayThresh is both HyStarts' delay margin: base/8 clamped to
// [4 ms, 16 ms].
func delayThresh(base time.Duration) time.Duration {
	return min(max(base/8, hystartDelayMinThresh), hystartDelayMaxThresh)
}

// congestionAvoidance applies the RFC 9438 window update.
func (c *Cubic) congestionAvoidance(now time.Duration, ackedSegs float64) {
	if !c.hasEpoch {
		c.epochStart = now
		c.hasEpoch = true
		if c.cwnd >= c.wMax {
			// Exiting slow start above the last Wmax: concave-free
			// epoch anchored at the current window.
			c.wMax = c.cwnd
			c.k = 0
		} else {
			c.k = math.Cbrt(c.wMax * (1 - c.opt.Beta) / c.opt.C)
		}
		c.ackCount = 0
		c.wEst = c.cwnd
	}
	c.ackCount += ackedSegs

	t := (now - c.epochStart).Seconds()
	rtt := c.srtt.Seconds()
	target := c.wMax + float64(c.opt.C*math.Pow(t+rtt-c.k, 3))

	var incPerAck float64
	if target > c.cwnd {
		incPerAck = (target - c.cwnd) / c.cwnd
	} else {
		incPerAck = 0.01 / c.cwnd // minimal probing, as in the kernel
	}

	if c.opt.TCPFriendly {
		// Reno-equivalent estimate: W_est grows by ~0.5·3(1-β)/(1+β)
		// segments per window of ACKs (RFC 9438 §4.3).
		alpha := 3 * (1 - c.opt.Beta) / (1 + c.opt.Beta)
		c.wEst += alpha * ackedSegs / c.cwnd
		if c.wEst > c.cwnd+float64(incPerAck*ackedSegs) {
			c.cwnd = c.wEst
			return
		}
	}
	c.cwnd += float64(incPerAck * ackedSegs)
}

// cubicUndo is the pre-RTO window snapshot for cc.Undoer.
type cubicUndo struct {
	valid          bool
	cwnd, ssthresh float64
	wMax, k        float64
	epochStart     time.Duration
	hasEpoch       bool
	ackCount, wEst float64
}

// OnLoss implements cc.Controller: multiplicative decrease and a new
// cubic epoch.
func (c *Cubic) OnLoss(ev cc.LossEvent) {
	c.undo.valid = false // real congestion: the pre-RTO state is stale
	c.hasEpoch = false
	if c.opt.FastConvergence && c.cwnd < c.wMax {
		c.wMax = c.cwnd * (2 - c.opt.Beta) / 2
	} else {
		c.wMax = c.cwnd
	}
	c.cwnd *= c.opt.Beta
	if c.cwnd < 2 {
		c.cwnd = 2
	}
	c.ssthresh = c.cwnd
}

// OnRTO implements cc.Controller: collapse to one segment and slow
// start toward half the pre-timeout flight.
func (c *Cubic) OnRTO(now time.Duration) {
	c.undo = cubicUndo{
		valid:      true,
		cwnd:       c.cwnd,
		ssthresh:   c.ssthresh,
		wMax:       c.wMax,
		k:          c.k,
		epochStart: c.epochStart,
		hasEpoch:   c.hasEpoch,
		ackCount:   c.ackCount,
		wEst:       c.wEst,
	}
	c.hasEpoch = false
	c.wMax = c.cwnd
	c.ssthresh = math.Max(c.cwnd*c.opt.Beta, 2)
	c.cwnd = 1
}

// UndoRTO implements cc.Undoer: restore the window state snapshotted
// by the most recent OnRTO. No-op once the undo window closed (a real
// OnLoss since, or already undone).
func (c *Cubic) UndoRTO(now time.Duration) {
	if !c.undo.valid {
		return
	}
	u := c.undo
	c.undo.valid = false
	c.cwnd = u.cwnd
	c.ssthresh = u.ssthresh
	c.wMax = u.wMax
	c.k = u.k
	c.epochStart = u.epochStart
	c.hasEpoch = u.hasEpoch
	c.ackCount = u.ackCount
	c.wEst = u.wEst
}
