// Package bbr implements model-based congestion control baselines:
// BBRv1 (Cardwell et al., "BBR: Congestion-based congestion control")
// and a BBRv2-lite variant with loss-bounded inflight. The paper uses
// BBR purely as a comparison curve — pacing-smooth startup with ~2.89×
// gain, loss tolerance, and PROBE_BW steady state — which these models
// reproduce.
package bbr

import (
	"time"

	"suss/internal/cc"
	"suss/internal/obs"
)

// state is the BBR state machine phase.
type state int

const (
	stateStartup state = iota
	stateDrain
	stateProbeBW
	stateProbeRTT
)

func (s state) String() string {
	switch s {
	case stateStartup:
		return "STARTUP"
	case stateDrain:
		return "DRAIN"
	case stateProbeBW:
		return "PROBE_BW"
	case stateProbeRTT:
		return "PROBE_RTT"
	default:
		return "?"
	}
}

const (
	highGain        = 2.885 // 2/ln(2)
	drainGain       = 1 / highGain
	cwndGain        = 2.0
	bwWindowRounds  = 10
	rttWindow       = 10 * time.Second
	probeRTTDur     = 200 * time.Millisecond
	minCwndSegments = 4
	// STARTUP exits when bandwidth grew < 25% for three consecutive
	// rounds (the pipe is full).
	startupGrowthTarget = 1.25
	startupFullRounds   = 3
)

// Options selects the variant.
type Options struct {
	// V2 enables the BBRv2-lite loss response: on a loss event the
	// inflight ceiling drops to Beta × the current inflight, bounding
	// cwnd until bandwidth probes raise it again.
	V2 bool
	// Beta is the v2 inflight reduction factor (default 0.7, matching
	// BBRv2's loss response).
	Beta float64
	// IW is the initial window in segments (default 10).
	IW int
	// SUSSStartup enables the paper's §7 future-work integration:
	// SUSS-style growth prediction doubles STARTUP's gains on rounds
	// where continued exponential growth is predicted (see sussBoost).
	SUSSStartup bool
}

// DefaultOptions returns BBRv1 settings.
func DefaultOptions() Options { return Options{Beta: 0.7, IW: 10} }

// V2Options returns the BBRv2-lite settings.
func V2Options() Options { return Options{V2: true, Beta: 0.7, IW: 10} }

// SUSSOptions returns BBRv1 with the SUSS-accelerated STARTUP.
func SUSSOptions() Options { return Options{Beta: 0.7, IW: 10, SUSSStartup: true} }

// BBR is a cc.Controller.
type BBR struct {
	env cc.Env
	opt Options

	st       state
	bwFilter cc.WindowedMax // bits/sec, windowed over rounds
	minRTT   cc.WindowedMinRTT
	rounds   cc.Rounds

	pacingGain float64
	cycleIdx   int
	cycleStamp time.Duration

	fullBW       float64
	fullBWRounds int
	filledPipe   bool

	probeRTTStart time.Duration

	inflightHi float64 // v2 loss-bounded ceiling in bytes (0 = none)

	lastInflight  int64
	appLimited    bool
	lossThisRound bool
	inRecovery    bool
	lossRounds    int // consecutive STARTUP rounds with loss

	boost sussBoost // runs only under Options.SUSSStartup

	// undo snapshots the model state at the last OnRTO so a spurious
	// timeout can be reverted (cc.Undoer).
	undo bbrUndo

	// ctr is the counter block of the flow env drives; rec, when
	// non-nil, receives STARTUP boost events.
	ctr *obs.FlowCounters
	rec *obs.FlowRecorder
}

// AttachRecorder installs a flight recorder for this controller's
// events. Pass nil to detach.
func (b *BBR) AttachRecorder(r *obs.FlowRecorder) { b.rec = r }

// New creates a BBR controller.
func New(env cc.Env, opt Options) *BBR {
	b := new(BBR)
	b.Reset(env, opt)
	return b
}

// Reset makes b the controller New(env, opt) returns: every field is
// reset and the recorder detached.
func (b *BBR) Reset(env cc.Env, opt Options) {
	if opt.Beta == 0 {
		opt.Beta = 0.7
	}
	if opt.IW == 0 {
		opt.IW = 10
	}
	*b = BBR{
		env:        env,
		opt:        opt,
		st:         stateStartup,
		bwFilter:   cc.MakeWindowedMax(bwWindowRounds),
		minRTT:     cc.MakeWindowedMinRTT(rttWindow),
		pacingGain: highGain,
		ctr:        obs.CountersOf(env),
	}
}

// BoostedRounds returns how many STARTUP rounds ran with doubled gains
// (0 unless Options.SUSSStartup).
func (b *BBR) BoostedRounds() int {
	return int(b.ctr.SussBoosts)
}

// State returns the current phase name (for traces).
func (b *BBR) State() string { return b.st.String() }

// BtlBw returns the bottleneck bandwidth estimate in bits/sec.
func (b *BBR) BtlBw() float64 { return b.bwFilter.Get() }

// InSlowStart implements cc.Controller: STARTUP is BBR's slow start.
func (b *BBR) InSlowStart() bool { return b.st == stateStartup }

// bdpBytes returns the estimated bandwidth-delay product in bytes.
func (b *BBR) bdpBytes() float64 {
	bw := b.bwFilter.Get()
	rtt := b.minRTT.Get()
	if bw == 0 || rtt == 0 {
		return 0
	}
	return bw / 8 * rtt.Seconds()
}

// CwndBytes implements cc.Controller.
func (b *BBR) CwndBytes() int64 {
	mss := int64(b.env.MSS())
	if b.st == stateProbeRTT {
		return minCwndSegments * mss
	}
	bdp := b.bdpBytes()
	if bdp == 0 {
		return int64(b.opt.IW) * mss
	}
	g := cwndGain
	if b.opt.SUSSStartup && b.st == stateStartup {
		g *= b.boost.gainMultiplier()
	}
	w := g * bdp
	if b.opt.V2 && b.inflightHi > 0 && w > b.inflightHi {
		w = b.inflightHi
	}
	// Packet conservation during fast recovery (as the kernel's BBR
	// does): hold the window near the current flight so retransmits
	// drain the queue instead of chasing it.
	if b.inRecovery {
		cap := float64(b.lastInflight + 3*mss)
		if w > cap {
			w = cap
		}
	}
	if w < minCwndSegments*float64(mss) {
		w = minCwndSegments * float64(mss)
	}
	return int64(w)
}

// PacingRate implements cc.Controller.
func (b *BBR) PacingRate() float64 {
	bw := b.bwFilter.Get()
	if bw == 0 {
		return 0 // no estimate yet: release the IW unpaced
	}
	g := b.pacingGain
	if b.opt.SUSSStartup && b.st == stateStartup {
		g *= b.boost.gainMultiplier()
	}
	return g * bw
}

// OnPacketSent implements cc.Controller.
func (b *BBR) OnPacketSent(now time.Duration, size int, seq int64, retrans bool) {}

// OnAck implements cc.Controller.
func (b *BBR) OnAck(ev cc.AckEvent) {
	// Expiry must be observed before the sample refreshes the filter
	// (the kernel checks filter_expired first, then updates min_rtt):
	// otherwise the first post-expiry sample would mask the need to
	// ProbeRTT.
	rttExpired := b.minRTT.Expired(ev.Now)
	if ev.RTT > 0 {
		b.minRTT.Update(ev.RTT, ev.Now)
	}
	b.lastInflight = ev.Inflight
	b.appLimited = ev.AppLimited
	b.inRecovery = ev.InRecovery
	if ev.InRecovery {
		b.lossThisRound = true
	}

	// Per-ACK delivery-rate sampling (RFC-style flight samples from the
	// transport); app-limited samples may only raise the estimate.
	if ev.BW > 0 && (!b.appLimited || ev.BW > b.bwFilter.Get()) {
		b.bwFilter.Update(ev.BW, uint64(b.rounds.N))
	}

	if b.opt.SUSSStartup {
		b.boost.onAck(ev)
	}

	// Round accounting: full-pipe detection and ceiling probes happen
	// once per round trip.
	if b.rounds.Update(ev) {
		if b.opt.SUSSStartup {
			b.boost.onRoundStart(&b.rounds, b.st == stateStartup && !b.filledPipe, b.bwFilter.Get())
			// The boosted flag for the new round is now decided; a
			// SUSS-boosted STARTUP round is this package's EvSussBoost.
			if b.boost.boosted {
				b.ctr.SussBoosts++
				if r := b.rec; r != nil {
					r.Record(ev.Now, obs.EvSussBoost, 0, 0, int64(boostGain*100), 0)
				}
			}
		}
		b.checkFullPipe()
		if b.lossThisRound {
			if b.st == stateStartup {
				b.lossRounds++
				// Sustained loss during STARTUP means the pipe (plus
				// buffer) is full even if competition noise keeps the
				// bandwidth filter creeping: stop the 2.885× gain
				// (BBRv2 behaviour; v1's plateau check alone can stall
				// in this state forever).
				if b.lossRounds >= 3 {
					b.filledPipe = true
				}
			}
		} else {
			b.lossRounds = 0
			b.relaxCeiling()
		}
		b.lossThisRound = false
	}

	b.advanceStateMachine(ev, rttExpired)
}

func (b *BBR) checkFullPipe() {
	if b.filledPipe || b.appLimited {
		return
	}
	bw := b.bwFilter.Get()
	if bw >= b.fullBW*startupGrowthTarget || b.fullBW == 0 {
		b.fullBW = bw
		b.fullBWRounds = 0
		return
	}
	b.fullBWRounds++
	if b.fullBWRounds >= startupFullRounds {
		b.filledPipe = true
	}
}

func (b *BBR) advanceStateMachine(ev cc.AckEvent, rttExpired bool) {
	now := ev.Now
	switch b.st {
	case stateStartup:
		if b.filledPipe {
			b.st = stateDrain
			b.pacingGain = drainGain
		}
	case stateDrain:
		if float64(ev.Inflight) <= b.bdpBytes() {
			b.enterProbeBW(now)
		}
	case stateProbeBW:
		// Advance the gain cycle roughly once per minRTT.
		if rtt := b.minRTT.Get(); rtt > 0 && now-b.cycleStamp > rtt {
			// Hold the 0.75 phase only until inflight drains to BDP.
			if b.cycleIdx != 1 || float64(ev.Inflight) <= b.bdpBytes() {
				b.cycleIdx = (b.cycleIdx + 1) % 8
				b.cycleStamp = now
				b.pacingGain = probeBWGains[b.cycleIdx]
			}
		}
		if rttExpired {
			b.st = stateProbeRTT
			b.probeRTTStart = now
			b.pacingGain = 1
		}
	case stateProbeRTT:
		if now-b.probeRTTStart >= probeRTTDur {
			if b.filledPipe {
				b.enterProbeBW(now)
			} else {
				b.st = stateStartup
				b.pacingGain = highGain
			}
		}
	}
}

var probeBWGains = [8]float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

func (b *BBR) enterProbeBW(now time.Duration) {
	b.st = stateProbeBW
	b.cycleIdx = 2 // start in a cruise phase, as the reference does
	b.cycleStamp = now
	b.pacingGain = probeBWGains[b.cycleIdx]
}

// OnLoss implements cc.Controller. BBRv1 deliberately does not react
// to individual losses; BBRv2-lite lowers its inflight ceiling.
// bbrUndo is the pre-RTO model snapshot for cc.Undoer. BBR's cwnd is
// derived from the BtlBw/RTprop model each ACK, so undoing means
// restoring the model inputs an RTO resets, not a window value.
type bbrUndo struct {
	valid        bool
	fullBW       float64
	fullBWRounds int
	filledPipe   bool
	inflightHi   float64
}

func (b *BBR) OnLoss(ev cc.LossEvent) {
	b.undo.valid = false // real congestion: the pre-RTO state is stale
	b.lossThisRound = true
	if b.opt.SUSSStartup {
		b.boost.disable()
	}
	if !b.opt.V2 {
		return
	}
	hi := float64(ev.Inflight) * b.opt.Beta
	mss := float64(b.env.MSS())
	if hi < minCwndSegments*mss {
		hi = minCwndSegments * mss
	}
	if b.inflightHi == 0 || hi < b.inflightHi {
		b.inflightHi = hi
	}
	// Repeated early loss also ends STARTUP in v2.
	if b.st == stateStartup {
		b.filledPipe = true
	}
}

// OnRTO implements cc.Controller: conservative restart. A timeout
// during STARTUP is a definitive full-pipe signal — the 2.885× gain
// has nothing left to discover.
func (b *BBR) OnRTO(now time.Duration) {
	b.undo = bbrUndo{
		valid:        true,
		fullBW:       b.fullBW,
		fullBWRounds: b.fullBWRounds,
		filledPipe:   b.filledPipe,
		inflightHi:   b.inflightHi,
	}
	if b.st == stateStartup {
		b.filledPipe = true
	}
	b.lossThisRound = true
	b.fullBW = 0
	b.fullBWRounds = 0
	if b.opt.V2 {
		b.inflightHi = 0
	}
}

// UndoRTO implements cc.Undoer: restore the model inputs the most
// recent OnRTO reset. No-op once the undo window closed (a real
// OnLoss since, or already undone). The bandwidth filter itself was
// never cleared, so restoring the full-pipe tracker is enough.
func (b *BBR) UndoRTO(now time.Duration) {
	if !b.undo.valid {
		return
	}
	u := b.undo
	b.undo.valid = false
	b.fullBW = u.fullBW
	b.fullBWRounds = u.fullBWRounds
	b.filledPipe = u.filledPipe
	b.inflightHi = u.inflightHi
}

// relaxCeiling additively probes the v2 inflight ceiling upward after
// every loss-free round, so a transient loss episode does not cap the
// flow forever.
func (b *BBR) relaxCeiling() {
	if b.opt.V2 && b.inflightHi > 0 {
		b.inflightHi += float64(b.env.MSS())
	}
}
