// Package core implements SUSS (Speeding Up Slow Start), the paper's
// primary contribution: a sender-side add-on to CUBIC's slow start
// that predicts — from the current round's ACK train and RTT
// measurements — whether exponential cwnd growth will continue next
// round, and if so accelerates the current round's growth factor from
// 2 to up to 2^(kmax+1), releasing the additional ("red") packets with
// a novel combination of ACK clocking and packet pacing:
//
//   - Clocking period: standard slow start — each blue ACK clocks out
//     twice the acknowledged data, preserving the ΔtBat measurement
//     that HyStart and the growth-factor estimator depend on.
//   - Guard interval: a computed silence (Eq. 12) separating clocked
//     from paced transmissions in both this and the next round.
//   - Pacing period: the remaining S_Rdt bytes of the enlarged window
//     are released at cwnd_i/minRTT (Eq. 11), with cwnd raised
//     gradually so an aborted pacing period leaves no window overhang.
//
// The modified HyStart of the paper's Fig. 8 runs on blue ACKs only,
// scales elapsed time by the data-train/blue-train ratio (Eq. 9), and
// converts a mid-round stop signal into a growth cap rather than an
// immediate exit.
//
// SUSS is a cc.SlowStart policy hosted by CUBIC: the host keeps the
// window and the flow's round tracker, and the paper's round i is host
// round N+1 (round 1 is the initial-window burst, whose first ACK
// begins host round 1).
package core

import (
	"fmt"
	"time"

	"suss/internal/cc"
	"suss/internal/cubic"
	"suss/internal/obs"
)

// Options configures SUSS.
type Options struct {
	// Kmax bounds the growth-factor exponent per Algorithm 1:
	// G ≤ 2^(Kmax+1). The paper's deployed configuration is Kmax = 1
	// (quadrupling); Appendix A generalizes it.
	Kmax int
	// AckTrainFrac is HyStart Condition 1's threshold as a fraction of
	// minRTT (default 0.5).
	AckTrainFrac float64
	// DelayFactor is HyStart Condition 2's threshold multiplier on
	// minRTT (default 1.125).
	DelayFactor float64
	// Cubic configures the host algorithm. Its HyStart and HyStartPP
	// are ignored: SUSS is the host's slow-start policy.
	Cubic cubic.Options

	// NoPacing disables the pacing period: the red window is granted
	// as one immediate burst ("clocking only" ablation, §4).
	NoPacing bool
	// PaceEverything paces all slow-start transmissions at
	// cwnd/minRTT, destroying the ΔtBat measurement ("pacing only"
	// ablation, §4).
	PaceEverything bool
	// NoGuard starts the pacing period immediately after the clocking
	// period (guard-interval ablation).
	NoGuard bool
}

// DefaultOptions returns the paper's deployed configuration.
func DefaultOptions() Options {
	return Options{
		Kmax:         1,
		AckTrainFrac: 0.5,
		DelayFactor:  1.125,
		Cubic:        cubic.DefaultOptions(),
	}
}

// Stats exposes SUSS-internal measurements for experiments and tests.
type Stats struct {
	AcceleratedRounds int // rounds that ran a pacing period (G > 2)
	MaxG              int
	GHistory          []int // growth factor measured per round (from round 2)
	CapExits          int   // slow-start exits via the growth cap
	TrainExits        int   // immediate ACK-train exits
	DelayExits        int   // delay-condition exits
}

// Suss is a cc.Controller implementing CUBIC+SUSS: a CUBIC host whose
// slow-start policy is SUSS. minRTT is the host's Rounds.Min, and a
// round's moRTT and sample count are Rounds.RoundMin and Samples.
type Suss struct {
	cubic.Cubic
	env cc.Env
	opt Options

	// Blue-train bookkeeping. blueBudget is S_Bdt for the current
	// round and blueEnd the sequence its blue train ends at; prev*
	// capture the previous round at the transition.
	blueBudget     int64
	blueEnd        int64
	prevBlueBudget int64
	prevBlueEnd    int64
	prevCwnd       int64 // cwnd_{i-1} in bytes
	roundStartCum  int64

	// Per-round measurement state.
	dtBat    time.Duration
	gDecided bool
	lastG    int

	// Modified-HyStart state.
	hyLastAck time.Duration
	capSet    bool
	capBytes  int64

	// Pacing-period state.
	pacingActive bool
	frozenRound  bool // suppress ACK-driven growth until next round
	pacingRate   float64
	gate         time.Duration // earliest-send gate (guard interval)
	redRemaining int64         // cwnd bytes still to add via ticks
	tickInterval time.Duration
	gateAt       time.Duration // the gate openGate installs
	tickTimer    cc.Timer
	endTimer     cc.Timer

	// openGate, tick and stopPacing as funcs, bound once per controller
	// (a method value allocates) and kept by Reset.
	openGateFn, tickFn, stopPacingFn func()

	enabled bool
	stats   Stats

	// rec, when non-nil, receives SUSS round/boost/exit events.
	rec *obs.FlowRecorder
}

// AttachRecorder installs a flight recorder on this controller (and
// on the wrapped CUBIC, so its HyStart exits are attributed too).
// Pass nil to detach.
func (s *Suss) AttachRecorder(r *obs.FlowRecorder) {
	s.rec = r
	s.Cubic.AttachRecorder(r)
}

// New creates a CUBIC+SUSS controller bound to the transport env.
func New(env cc.Env, opt Options) *Suss {
	s := new(Suss)
	s.Reset(env, opt)
	return s
}

// Reset makes s the controller New(env, opt) returns. It keeps only
// what no result can see: the bound pacing callbacks and the backing
// array of Stats().GHistory. The recorder is detached.
func (s *Suss) Reset(env cc.Env, opt Options) {
	if opt.Kmax <= 0 {
		opt.Kmax = 1
	}
	if opt.AckTrainFrac == 0 {
		opt.AckTrainFrac = 0.5
	}
	if opt.DelayFactor == 0 {
		opt.DelayFactor = 1.125
	}
	copt := opt.Cubic
	if copt.IW == 0 {
		copt = cubic.DefaultOptions()
	}
	blue := int64(copt.IW) * int64(env.MSS()) // S_Bdt_1 = iw
	*s = Suss{
		env:          env,
		opt:          opt,
		enabled:      true,
		blueBudget:   blue,
		blueEnd:      blue,
		stats:        Stats{GHistory: s.stats.GHistory[:0]},
		openGateFn:   s.openGateFn,
		tickFn:       s.tickFn,
		stopPacingFn: s.stopPacingFn,
	}
	if s.tickFn == nil {
		s.openGateFn, s.tickFn, s.stopPacingFn = s.openGate, s.tick, s.stopPacing
	}
	s.Cubic.Reset(env, copt, s)
}

// Stats returns a copy of the SUSS counters. Its GHistory shares the
// controller's array: it is valid until the controller's next Reset.
func (s *Suss) Stats() Stats { return s.stats }

// PacingActive reports whether a pacing period is in progress.
func (s *Suss) PacingActive() bool { return s.pacingActive }

// PacingRate implements cc.Controller.
func (s *Suss) PacingRate() float64 {
	if s.pacingActive {
		return s.pacingRate
	}
	if rtt := s.Rounds().Min; s.opt.PaceEverything && s.InSlowStart() && rtt > 0 {
		return paceRate(s.CwndBytes(), rtt)
	}
	return s.Cubic.PacingRate()
}

// EarliestSend implements tcp.EarliestSender: during the guard
// interval no packet may leave.
func (s *Suss) EarliestSend(now time.Duration) time.Duration {
	if s.pacingActive && now < s.gate {
		return s.gate
	}
	return 0
}

// OnSlowStartAck implements cc.SlowStart. Once SUSS is off (its exit,
// a loss or a timeout) slow start is plain doubling. The ACK that
// begins a round rolls SUSS's round first. ACK-driven growth is frozen
// for the remainder of a round once the pacing period has been
// scheduled: the red window arrives via pacing ticks instead (Fig. 6
// semantics).
func (s *Suss) OnSlowStartAck(ev cc.AckEvent, ackedSegs float64, newRound bool) {
	if !s.enabled {
		s.AddCwndSegments(ackedSegs)
		return
	}
	if newRound {
		s.startRound(ev)
	}
	if !s.frozenRound {
		s.AddCwndSegments(ackedSegs)
	}
	s.modifiedHyStart(ev)
	s.maybeDecideG(ev)
	s.checkCap()
}

// startRound rolls the per-round bookkeeping at the first ACK of a new
// round (the ACK of the first packet sent in the previous round).
func (s *Suss) startRound(ev cc.AckEvent) {
	// Capture the ending round's state before overwriting.
	s.prevBlueBudget = s.blueBudget
	s.prevBlueEnd = s.blueEnd
	s.prevCwnd = s.CwndBytes() // cwnd_{i-1}: before this ACK's growth

	if r := s.rec; r != nil {
		r.C.SussRounds++
		r.Record(ev.Now, obs.EvSussRoundStart, ev.CumAck, 0, int64(s.Rounds().N+1), s.CwndBytes())
	}
	s.roundStartCum = ev.CumAck
	s.blueBudget = 2 * s.prevBlueBudget
	s.blueEnd = ev.SndNxt + s.blueBudget
	s.dtBat = 0
	s.gDecided = false
	s.hyLastAck = ev.Now
	s.frozenRound = false
	// Any pacing from the previous round must be over; clear defensively.
	s.stopPacing()
}

// maybeDecideG measures ΔtBat at the last blue ACK and runs
// Algorithm 1 (Section 3 semantics: granting k future rounds requires
// Δt_at ≤ minRTT/2^(k+1), Eq. 17, and the moRTT extrapolation of
// Eq. 19). Note the paper's Appendix A pseudo-code tests the bound at
// the pre-increment k, which for kmax=1 would grant G=4 from the
// weaker Eq. 2 bound; we follow the body text (Eq. 6), which requires
// minRTT/4 for quadrupling. See DESIGN.md.
func (s *Suss) maybeDecideG(ev cc.AckEvent) {
	r := s.Rounds()
	if s.gDecided || r.Min == 0 || ev.CumAck < s.prevBlueEnd {
		return
	}
	s.gDecided = true
	s.dtBat = ev.Now - r.Start
	if s.prevBlueBudget <= 0 || s.prevCwnd <= 0 {
		return
	}
	// Eq. 9: scale the blue ACK-train length to the full data train.
	dtAt := time.Duration(float64(s.dtBat) * trainRatio(s.prevCwnd, s.prevBlueBudget))

	k := s.computeK(dtAt)
	g := 1 << (k + 1)
	s.lastG = g
	s.stats.GHistory = append(s.stats.GHistory, g)
	if g > s.stats.MaxG {
		s.stats.MaxG = g
	}
	if g > 2 {
		s.beginPacing(g)
	}
}

// computeK returns the largest k ≤ Kmax for which Conditions 1 and 2
// hold for round i+k.
func (s *Suss) computeK(dtAt time.Duration) int {
	r := s.Rounds()
	n := r.N - r.MinRound
	best := 0
	for k := 1; k <= s.opt.Kmax; k++ {
		// Condition 1 (Eq. 17): ΔtAt ≤ AckTrainFrac·minRTT / 2^k.
		if dtAt > ackTrainBound(r.Min, s.opt.AckTrainFrac, k) {
			break
		}
		// Condition 2 (Eq. 19): projected moRTT stays under the delay
		// threshold. n == 0 means minRTT was lowered this round: no
		// queue growth to extrapolate.
		if n > 0 && r.RoundMin > 0 && float64(projectedRTT(r.RoundMin, r.Min, k, n)) > s.opt.DelayFactor*float64(r.Min) {
			break
		}
		best = k
	}
	return best
}

// beginPacing schedules the guard interval, the paced release of the
// red window, and the end of the pacing period.
func (s *Suss) beginPacing(g int) {
	now := s.env.Now()
	target := int64(g) * s.prevCwnd // cwnd_i (Eq. 1)
	sBdt := s.blueBudget            // S_Bdt_i
	sRdt := target - sBdt           // S_Rdt_i (Eq. 10 equivalent)
	redGrowth := target - s.CwndBytes()
	if sRdt <= 0 || redGrowth <= 0 {
		return
	}
	s.stats.AcceleratedRounds++
	if r := s.rec; r != nil {
		r.C.SussBoosts++
		r.Record(now, obs.EvSussBoost, 0, 0, int64(g), redGrowth)
	}

	if s.opt.NoPacing {
		// Clocking-only ablation: grant the red window at once; the
		// freed + grown window leaves as a burst.
		s.AddCwndSegments(float64(redGrowth) / float64(s.env.MSS()))
		s.frozenRound = true
		s.env.Kick()
		return
	}

	// Eq. 12 guard; Eq. 11 rate, pacing period and tick interval.
	minRTT := s.Rounds().Min
	guard := guardInterval(minRTT, sBdt, target, s.dtBat)
	if s.opt.NoGuard {
		guard = 0
	}
	dur := paceTime(minRTT, sRdt, target)
	s.pacingRate = paceRate(target, minRTT)
	s.redRemaining = redGrowth
	s.tickInterval = paceTime(minRTT, int64(s.env.MSS()), target)
	s.frozenRound = true

	// Activate the gate in a follow-up event so the clocked sends
	// triggered by this same ACK are not caught by it.
	s.gateAt = now + guard
	s.env.Schedule(0, s.openGateFn)
	s.tickTimer = s.env.Schedule(guard, s.tickFn)
	s.endTimer = s.env.Schedule(guard+dur, s.stopPacingFn)
}

// openGate starts the guard interval beginPacing scheduled, unless the
// round's pacing was called off in between.
func (s *Suss) openGate() {
	if s.frozenRound {
		s.pacingActive = true
		s.gate = s.gateAt
	}
}

// tick releases one MSS of red window and reschedules itself until the
// round's red growth is exhausted.
func (s *Suss) tick() {
	if !s.frozenRound || s.redRemaining <= 0 {
		return
	}
	mss := int64(s.env.MSS())
	add := mss
	if add > s.redRemaining {
		add = s.redRemaining
	}
	s.redRemaining -= add
	s.AddCwndSegments(float64(add) / float64(mss))
	s.checkCap()
	s.env.Kick()
	if s.redRemaining > 0 && s.frozenRound {
		s.tickTimer = s.env.Schedule(s.tickInterval, s.tickFn)
	}
}

// stopPacing ends the pacing period (normally or on abort), discarding
// any un-granted red window so an interrupted round leaves no
// overhang.
func (s *Suss) stopPacing() {
	s.pacingActive = false
	s.pacingRate = 0
	s.gate = 0
	s.redRemaining = 0
	if s.tickTimer != nil {
		s.tickTimer.Stop()
	}
	if s.endTimer != nil {
		s.endTimer.Stop()
	}
}

// modifiedHyStart implements the paper's Fig. 8: the two HyStart
// detectors evaluated on blue ACKs, with elapsed time scaled by the
// data-train/blue ratio and a growth cap instead of an immediate stop
// when the estimate was scaled.
func (s *Suss) modifiedHyStart(ev cc.AckEvent) {
	const hystartLowWindow = 16
	const ackDelta = 2 * time.Millisecond
	r := s.Rounds()
	if r.Min == 0 || s.CwndSegments() < hystartLowWindow {
		return
	}
	// Only blue ACKs represent the unmodified path condition.
	isBlue := ev.CumAck <= s.prevBlueEnd
	now := ev.Now

	gap := now - s.hyLastAck
	s.hyLastAck = now
	if isBlue && gap <= ackDelta {
		ratio := trainRatio(s.prevCwnd, s.prevBlueBudget)
		elapsed := now - r.Start
		est := time.Duration(float64(elapsed) * ratio)
		if float64(est) > s.opt.AckTrainFrac*float64(r.Min) {
			if ratio > 1 {
				// The estimate was scaled, so the signal fired early in
				// the round (the blue train is compressed relative to
				// the full data train). Exiting here would stop well
				// below where unmodified HyStart stops — Fig. 9 shows
				// both variants ending exponential growth at almost the
				// same cwnd. The cap postpones the stop to the
				// HyStart-equivalent window: the round-start cwnd plus
				// what the measured delivery rate would have clocked
				// out by the time the unscaled elapsed time crossed the
				// threshold (Fig. 8's "cap" branch).
				if !s.capSet {
					s.capSet = true
					acked := ev.CumAck - s.roundStartCum
					var extra int64
					if elapsed > 0 && acked > 0 {
						impliedRate := float64(acked) / elapsed.Seconds() // bytes/sec
						extra = int64(impliedRate * s.opt.AckTrainFrac * r.Min.Seconds())
					}
					s.capBytes = s.prevCwnd + extra
					s.stats.CapExits++
				}
			} else {
				// Unscaled signal: behave exactly like HyStart.
				s.stats.TrainExits++
				s.exitSlowStart(now, obs.ExitTrain)
				return
			}
		}
	}

	// Condition 2: the round's minimum observed RTT against the delay
	// threshold, after enough samples.
	const minSamples = 8
	if isBlue && r.Samples >= minSamples && r.RoundMin > 0 {
		if float64(r.RoundMin) > s.opt.DelayFactor*float64(r.Min) {
			s.stats.DelayExits++
			s.exitSlowStart(now, obs.ExitDelay)
		}
	}
}

// checkCap enforces the postponed stop installed by modifiedHyStart.
func (s *Suss) checkCap() {
	if s.capSet && s.CwndBytes() >= s.capBytes {
		s.exitSlowStart(s.env.Now(), obs.ExitCap)
	}
}

func (s *Suss) exitSlowStart(now time.Duration, reason obs.HyStartReason) {
	s.ExitSlowStart(now, reason)
	s.disable()
}

// disable turns SUSS off for the rest of the connection, aborting any
// pacing period (the un-granted red window is discarded). Slow start
// is over, or a loss or timeout ended it.
func (s *Suss) disable() {
	if s.enabled {
		if r := s.rec; r != nil {
			r.C.SussExits++
			var aborted int64
			if s.pacingActive || s.frozenRound {
				aborted = 1
			}
			r.Record(s.env.Now(), obs.EvSussExit, 0, 0, aborted, s.CwndBytes())
		}
	}
	s.enabled = false
	s.stopPacing()
	s.frozenRound = false
}

// OnLoss implements cc.Controller: SUSS stops, CUBIC reacts.
func (s *Suss) OnLoss(ev cc.LossEvent) {
	s.disable()
	s.Cubic.OnLoss(ev)
}

// OnRTO implements cc.Controller. SUSS stays off even if the host
// undoes a spurious timeout (cc.Undoer): the boost machinery is a
// slow-start mechanism, and a timeout means the path is too unstable
// to resume granting red windows.
func (s *Suss) OnRTO(now time.Duration) {
	s.disable()
	s.Cubic.OnRTO(now)
}

// String implements fmt.Stringer for debugging.
func (s *Suss) String() string {
	return fmt.Sprintf("suss{round:%d G:%d cwnd:%dB pacing:%v}", s.Rounds().N+1, s.lastG, s.CwndBytes(), s.pacingActive)
}
