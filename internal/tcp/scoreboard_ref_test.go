package tcp

// The reference sender: the transport as it stood before the ring
// scoreboard — segment state in a Go map, loss candidates in a hole set
// iterated on every ACK, a linearly searched retransmit queue and a
// SACK interval set rebuilt per block. It is kept, logic unchanged, as
// the oracle TestScoreboardDifferential drives in lockstep with Sender.
// The one edit: detectLosses records the segments one ACK marks lost in
// ascending order, after its loop, so that its event log can be
// compared record for record (ranging over the hole map made the
// original's same-ACK EvLossDetected records land in random order).

import (
	"fmt"
	"sort"
	"time"

	"suss/internal/cc"
	"suss/internal/netsim"
	"suss/internal/obs"
	"suss/internal/wire"
)

// segStart returns the segment-aligned start for a byte sequence.
func segStart(seq int64, mss int) int64 {
	return seq - seq%int64(mss)
}

// segment states for the scoreboard.
type refSegState uint8

const (
	refStInflight        refSegState = iota // sent, outcome unknown
	refStSacked                             // selectively acknowledged
	refStLost                               // presumed lost, awaiting retransmit
	refStRetransInFlight                    // retransmitted, outcome unknown
)

// refSegInfo is the per-segment scoreboard entry. sentAt and delivAtSend
// support RFC-style delivery-rate sampling (BBR): a segment's rate
// sample is (delivered_now − delivAtSend) / (now − sentAt).
type refSegInfo struct {
	st          refSegState
	lostBy      uint8 // obs.RetransCause that marked it lost (valid in refStLost)
	sentAt      time.Duration
	delivAtSend int64
	retrans     bool // ever retransmitted: rate samples are ambiguous
}

// refSender drives one bulk flow of size bytes through a wire.Conn,
// under the congestion controller ctrl. It implements cc.Env for the
// controller. Every segment it emits is encoded to frame bytes by the
// conn's backend, and every ACK it processes arrives as a strictly
// decoded wire.Segment — the sender's view of its peer is exactly
// what survives the framing, on the simulator and on a real socket
// alike.
type refSender struct {
	conn wire.Conn
	sim  *netsim.Simulator // conn.Clock(), cached: every timer lives here
	cfg  Config
	flow netsim.FlowID
	ctrl cc.Controller

	// wireSeg is the scratch segment emit encodes from; reusing it
	// keeps the send path allocation-free.
	wireSeg wire.Segment

	size   int64
	sndUna int64
	sndNxt int64

	state     map[int64]refSegInfo // segment start → state + rate-sample data
	lostQueue []int64              // sorted segment starts pending retransmit
	inflight  int64                // bytes presumed in the network

	highestSacked int64
	delivered     int64

	// sackedIv is the merged set of SACKed intervals above sndUna, so
	// repeated SACK blocks (which re-announce whole contiguous ranges)
	// are processed only for their newly-covered parts. sackedNext and
	// freshScratch are the double-buffer / scratch halves that let
	// addSackInterval rebuild the set without allocating per ACK.
	sackedIv     []sackRange
	sackedNext   []sackRange
	freshScratch []sackRange
	// holes are unresolved segment starts below highestSacked — the
	// candidates for loss marking. holeScan is the swept boundary.
	holes    map[int64]struct{}
	holeScan int64

	rtt    *rttEstimator
	minRTT cc.MinRTTTracker

	inRecovery  bool
	recoveryEnd int64

	rtoTimer    netsim.Timer
	tlpTimer    netsim.Timer
	tlpArmed    bool // a probe may fire for the current flight
	kickTimer   netsim.Timer
	nextRelease time.Duration

	started  bool
	finished bool
	startAt  time.Duration
	doneAt   time.Duration

	// F-RTO (Eifel) spurious-timeout detection state: armed by fireRTO,
	// resolved by the first ACKs after it. frtoAt is when the timeout
	// fired; an ACK echoing an earlier timestamp while advancing past
	// frtoUna proves the original flight was still delivering.
	frtoPending bool
	frtoAt      time.Duration
	frtoUna     int64
	frtoNxt     int64

	// consecRTOs counts RTO fires with no forward progress in between;
	// Config.MaxConsecRTOs caps it (give-up → failed flow).
	consecRTOs int
	failed     bool
	failErr    error

	// reoWnd is the adaptive extra reordering tolerance added to
	// RACK-lite loss detection (grown on contradicted loss markings
	// when Config.AdaptReoWnd is set; zero otherwise).
	reoWnd time.Duration

	stats SenderStats

	// rec, when non-nil, is the attached flight recorder; every
	// emission site is guarded by a nil check so an unobserved sender
	// pays one branch per site. lastCwnd backs EvCwndChanged.
	rec      *obs.FlowRecorder
	lastCwnd int64

	// OnComplete fires once when every byte has been cumulatively
	// acknowledged.
	OnComplete func(now time.Duration)
	// OnFail fires once if the flow gives up (see ErrRetransLimit).
	OnFail func(now time.Duration, err error)
	// OnAckTrace, when non-nil, observes state after each processed
	// ACK (for cwnd/RTT time series).
	OnAckTrace func(now time.Duration, cwnd int64, srtt time.Duration, delivered int64)
}

// newRefSender creates a reference sender for one flow transmitting through conn.
// The caller must install HandleAck as the conn's handler (NewFlowOver
// does both).
func newRefSender(conn wire.Conn, cfg Config, flow netsim.FlowID, size int64, ctrl cc.Controller) *refSender {
	return &refSender{
		conn:  conn,
		sim:   conn.Clock(),
		cfg:   cfg,
		flow:  flow,
		ctrl:  ctrl,
		size:  size,
		state: make(map[int64]refSegInfo),
		holes: make(map[int64]struct{}),
		rtt:   &rttEstimator{minRTO: cfg.MinRTO, maxRTO: cfg.MaxRTO},
	}
}

// --- cc.Env ---

// Now implements cc.Env.
func (s *refSender) Now() time.Duration { return s.sim.Now() }

// Schedule implements cc.Env.
func (s *refSender) Schedule(d time.Duration, fn func()) cc.Timer {
	return s.sim.Schedule(d, fn)
}

// Kick implements cc.Env.
func (s *refSender) Kick() { s.trySend() }

// MSS implements cc.Env.
func (s *refSender) MSS() int { return s.cfg.MSS }

// AttachRecorder installs a flight recorder on this sender. Attach
// after SetController so the cwnd-change baseline starts at the
// controller's initial window. Pass nil to detach.
func (s *refSender) AttachRecorder(r *obs.FlowRecorder) {
	s.rec = r
	if r != nil && s.ctrl != nil {
		s.lastCwnd = s.ctrl.CwndBytes()
	}
}

// noteCwnd records a congestion-window change observed after a
// controller callback returned.
func (s *refSender) noteCwnd(now time.Duration) {
	r := s.rec
	if r == nil {
		return
	}
	if cw := s.ctrl.CwndBytes(); cw != s.lastCwnd {
		r.C.CwndChanges++
		r.Record(now, obs.EvCwndChanged, 0, 0, cw, s.lastCwnd)
		s.lastCwnd = cw
	}
}

// Start begins transmitting at the current virtual time.
func (s *refSender) Start() {
	if s.started {
		return
	}
	if s.ctrl == nil {
		panic("tcp: Start before SetController")
	}
	s.started = true
	s.startAt = s.sim.Now()
	s.trySend()
}

// segLen returns the payload length of the segment starting at seg.
func (s *refSender) segLen(seg int64) int64 {
	l := int64(s.cfg.MSS)
	if seg+l > s.size {
		l = s.size - seg
	}
	return l
}

// --- transmission ---

// The sender's three self-timers as package-level EventFuncs: arming
// them stores the *refSender in the timer slot instead of allocating a
// bound-method closure per arm (the RTO re-arms on every cumulative
// advance, so this is a per-ACK saving).
func refTrySendEv(ctx, _ any) { ctx.(*refSender).trySend() }
func refFireRTOEv(ctx, _ any) { ctx.(*refSender).fireRTO() }
func refFireTLPEv(ctx, _ any) { ctx.(*refSender).fireTLP() }

func (s *refSender) trySend() {
	if !s.started || s.finished || s.failed {
		return
	}
	for {
		var seg int64
		retrans := false
		switch {
		case len(s.lostQueue) > 0:
			seg = s.lostQueue[0]
			retrans = true
		case s.sndNxt < s.size:
			seg = s.sndNxt
		default:
			s.armRTO()
			return
		}
		l := s.segLen(seg)
		if s.inflight+l > s.ctrl.CwndBytes() {
			s.armRTO()
			return
		}
		now := s.sim.Now()

		// Controller-imposed earliest-send gate (SUSS guard interval).
		if g, ok := s.ctrl.(EarliestSender); ok {
			if at := g.EarliestSend(now); at > now {
				s.armKick(at - now)
				return
			}
		}
		// Pacing gate.
		if rate := s.ctrl.PacingRate(); rate > 0 {
			if s.nextRelease > now {
				s.armKick(s.nextRelease - now)
				return
			}
			wireBits := float64((int(l) + s.cfg.HeaderBytes) * 8)
			gap := time.Duration(wireBits / rate * float64(time.Second))
			if s.nextRelease < now {
				s.nextRelease = now
			}
			s.nextRelease += gap
		}
		s.emit(seg, l, retrans)
	}
}

func (s *refSender) armKick(d time.Duration) {
	if s.kickTimer.Active() {
		return
	}
	s.kickTimer = s.sim.ScheduleEvent(d, refTrySendEv, s, nil)
	s.armRTO()
}

func (s *refSender) emit(seg, l int64, retrans bool) {
	now := s.sim.Now()
	ws := &s.wireSeg
	*ws = wire.Segment{
		SrcPort:    uint16(s.flow),
		DstPort:    uint16(s.flow),
		Seq:        uint32(seg),
		Flags:      wire.FlagACK | wire.FlagPSH,
		Window:     65535,
		PayloadLen: int(l),
	}
	var cause uint8
	if retrans {
		cause = s.state[seg].lostBy
		s.removeFromLostQueue(seg)
		s.state[seg] = refSegInfo{st: refStRetransInFlight, sentAt: now, delivAtSend: s.delivered, retrans: true}
		if seg+l <= s.highestSacked {
			s.holes[seg] = struct{}{} // RACK may need to re-detect it
		}
		s.stats.Retransmissions++
	} else {
		// Karn's rule: only fresh transmissions carry a timestamp for the
		// receiver to echo — the option's presence is the echo-validity
		// signal on the wire, so retransmissions omit it entirely.
		ws.HasTS = true
		ws.TSVal = wire.WrapTS(now)
		s.state[seg] = refSegInfo{st: refStInflight, sentAt: now, delivAtSend: s.delivered}
		s.sndNxt = seg + l
	}
	s.inflight += l
	s.stats.SegmentsSent++
	if r := s.rec; r != nil {
		if retrans {
			r.C.SegsRetrans++
			switch obs.RetransCause(cause) {
			case obs.CauseFast:
				r.C.RetransFast++
			case obs.CauseRTO:
				r.C.RetransRTO++
			case obs.CauseTLP:
				r.C.RetransTLP++
			case obs.CauseReneg:
				r.C.RetransReneg++
			}
			r.Record(now, obs.EvSegRetrans, seg, l, int64(cause), 0)
		} else {
			r.C.SegsSent++
			r.Record(now, obs.EvSegSent, seg, l, s.inflight, 0)
		}
	}
	s.ctrl.OnPacketSent(now, int(l), seg, retrans)
	n := s.conn.Send(ws, wire.SendMeta{WireSize: int(l) + s.cfg.HeaderBytes})
	if r := s.rec; r != nil {
		r.C.WireFramesOut++
		r.C.WireBytesOut += int64(n)
	}
	s.armRTO()
}

// --- acknowledgment processing ---

// HandleAck processes one decoded ACK segment addressed to this flow.
// It is the flow's wire.Handler: seg is the conn's scratch segment,
// valid only for the duration of the call, and wireLen is the frame's
// wire length for byte accounting. The 32-bit wire fields are
// unwrapped against the sender's 64-bit state here, at the boundary,
// so everything below speaks full sequence numbers.
func (s *refSender) HandleAck(seg *wire.Segment, wireLen int) {
	if seg.IsData() || seg.Flags&wire.FlagACK == 0 || s.finished || s.failed || !s.started {
		return
	}
	now := s.sim.Now()
	if r := s.rec; r != nil {
		r.C.WireFramesIn++
		r.C.WireBytesIn += int64(wireLen)
	}
	cumAck := wire.Unwrap32(s.sndUna, seg.Ack)
	hasEcho := seg.HasTS
	var echoTS time.Duration
	if hasEcho {
		echoTS = wire.UnwrapTS(now, seg.TSEcr)
	}

	var sample time.Duration
	if hasEcho {
		sample = now - echoTS
		s.rtt.Update(sample)
		s.minRTT.Update(sample, now)
	}

	// F-RTO (Eifel) resolution: an ACK that echoes a timestamp from
	// before the timeout while advancing the window proves the original
	// flight was still being delivered — the RTO was spurious. Only
	// fresh transmissions carry echoes (Karn's rule), so a pre-frtoAt
	// echo cannot have come from anything the timeout retransmitted.
	if s.frtoPending {
		if hasEcho && echoTS < s.frtoAt && cumAck > s.frtoUna {
			s.undoRTO(now)
		} else if cumAck >= s.frtoNxt {
			// The whole pre-timeout window was acked without proof of
			// spuriousness; the question is moot.
			s.frtoPending = false
		}
	}

	var newBytes int64
	var bwSample float64 // freshest delivery-rate sample, bits/sec

	// Cumulative advance.
	if cumAck > s.sndUna {
		for seg := segStart(s.sndUna, s.cfg.MSS); seg < cumAck; seg += int64(s.cfg.MSS) {
			info, ok := s.state[seg]
			if !ok {
				continue
			}
			l := s.segLen(seg)
			switch info.st {
			case refStInflight, refStRetransInFlight:
				s.inflight -= l
				s.delivered += l
				newBytes += l
				bwSample = s.rateSample(info, now, bwSample)
			case refStLost:
				s.removeFromLostQueue(seg)
				s.delivered += l
				newBytes += l
				// The original transmission was acknowledged while the
				// segment was still marked lost: the loss marking was
				// contradicted, so any retransmission is (or would have
				// been) spurious.
				if r := s.rec; r != nil {
					r.C.SpuriousRetrans++
				}
				s.bumpReoWnd()
			case refStSacked:
				// already counted
			}
			delete(s.state, seg)
		}
		s.sndUna = cumAck
		for len(s.sackedIv) > 0 && s.sackedIv[0].End <= s.sndUna {
			s.sackedIv = s.sackedIv[1:]
		}
		if len(s.sackedIv) > 0 && s.sackedIv[0].Start < s.sndUna {
			s.sackedIv[0].Start = s.sndUna
		}
		if s.inRecovery && s.sndUna >= s.recoveryEnd {
			s.inRecovery = false
		}
		s.tlpArmed = true // forward progress re-arms the probe allowance
		s.consecRTOs = 0  // cumulative progress resets the give-up counter
		s.resetRTO()
	}

	// Selective acknowledgments: process only the parts of each block
	// not already known (blocks re-announce whole contiguous ranges on
	// every ACK; rescanning them is quadratic). Blocks unwrap near
	// sndUna — any in-window value is within ±2³¹ of it, so the
	// recovery is exact; garbage blocks from a hostile peer unwrap to
	// ranges the clamps below neutralize.
	for _, b := range seg.SackBlocks() {
		r := sackRange{Start: wire.Unwrap32(s.sndUna, b.Start)}
		r.End = wire.Unwrap32(r.Start, b.End)
		if r.Start < s.sndUna {
			r.Start = s.sndUna
		}
		for _, nr := range s.addSackInterval(r) {
			for seg := segStart(nr.Start, s.cfg.MSS); seg < nr.End; seg += int64(s.cfg.MSS) {
				info, ok := s.state[seg]
				if !ok || info.st == refStSacked {
					continue
				}
				l := s.segLen(seg)
				// Only fully-covered segments count as SACKed.
				if seg < nr.Start || seg+l > nr.End {
					continue
				}
				switch info.st {
				case refStInflight, refStRetransInFlight:
					s.inflight -= l
					bwSample = s.rateSample(info, now, bwSample)
				case refStLost:
					s.removeFromLostQueue(seg)
					// Selectively acked while marked lost: contradicted
					// loss marking, same as the cumulative case above.
					if r := s.rec; r != nil {
						r.C.SpuriousRetrans++
					}
					s.bumpReoWnd()
				}
				info.st = refStSacked
				s.state[seg] = info
				delete(s.holes, seg)
				s.delivered += l
				newBytes += l
				if seg+l > s.highestSacked {
					s.highestSacked = seg + l
				}
			}
		}
	}

	// SACK-reneging detection: a sane receiver never cumulatively
	// acknowledges less than data it still reports SACKed, so the head
	// segment sitting in refStSacked while sndUna hasn't covered it means
	// the receiver threw previously-SACKed data away (RFC 2018 allows
	// this under memory pressure). Discard the reneged scoreboard state
	// and repair by retransmission. Reverse-path ACK reordering can
	// false-trigger this; the consequence is a conservative retransmit,
	// never stalled or corrupted state.
	if s.sndUna < s.sndNxt {
		if info, ok := s.state[segStart(s.sndUna, s.cfg.MSS)]; ok && info.st == refStSacked {
			s.onSackReneg(now)
		}
	}

	if r := s.rec; r != nil {
		r.C.AcksSeen++
		r.Record(now, obs.EvAckRecvd, cumAck, newBytes, s.inflight, 0)
		if seg.NSack > 0 {
			r.C.SackRanges += int64(seg.NSack)
			r.Record(now, obs.EvSackRecvd, cumAck, 0, int64(seg.NSack), 0)
		}
	}

	// Loss detection (RFC 6675-style: DupThresh segments SACKed above).
	newlyLost := s.detectLosses(now)
	if newlyLost > 0 {
		// Real loss after the timeout: even if the RTO itself was
		// spurious, the congestion signal stands — stop looking for
		// proof and keep the collapse.
		s.frtoPending = false
	}
	if newlyLost > 0 && !s.inRecovery {
		s.inRecovery = true
		s.recoveryEnd = s.sndNxt
		s.stats.LossEvents++
		s.ctrl.OnLoss(cc.LossEvent{
			Now:       now,
			Inflight:  s.inflight,
			LostBytes: int(newlyLost),
			SndNxt:    s.sndNxt,
		})
	}

	// Completion.
	if s.sndUna >= s.size {
		s.noteCwnd(now)
		if s.OnAckTrace != nil {
			s.OnAckTrace(now, s.ctrl.CwndBytes(), s.rtt.SRTT(), s.delivered)
		}
		s.finish(now)
		return
	}

	if newBytes > 0 {
		s.ctrl.OnAck(cc.AckEvent{
			Now:        now,
			AckedBytes: int(newBytes),
			CumAck:     s.sndUna,
			SndNxt:     s.sndNxt,
			RTT:        sample,
			Inflight:   s.inflight,
			Delivered:  s.delivered,
			AppLimited: s.sndNxt >= s.size,
			InRecovery: s.inRecovery,
			BW:         bwSample,
		})
	}
	s.noteCwnd(now)
	if s.OnAckTrace != nil {
		s.OnAckTrace(now, s.ctrl.CwndBytes(), s.rtt.SRTT(), s.delivered)
	}
	s.trySend()
}

// rateSample folds one acked segment into the freshest delivery-rate
// estimate (bits/sec): later segments overwrite earlier ones, never
// from retransmits. It returns the updated freshest sample.
func (s *refSender) rateSample(info refSegInfo, now time.Duration, cur float64) float64 {
	if info.retrans || info.sentAt >= now {
		return cur
	}
	elapsed := (now - info.sentAt).Seconds()
	if bw := float64(s.delivered-info.delivAtSend) * 8 / elapsed; bw > 0 {
		return bw
	}
	return cur
}

// addSackInterval merges iv into the known-SACKed set and returns the
// sub-intervals that were not previously covered. The returned slice
// is scratch storage reused by the next call; callers consume it
// before merging another interval. The rebuilt set lands in a
// double buffer (sackedIv/sackedNext swap roles), so steady-state
// SACK processing allocates nothing.
func (s *refSender) addSackInterval(iv sackRange) []sackRange {
	if iv.End <= iv.Start {
		return nil
	}
	fresh := s.freshScratch[:0]
	out := s.sackedNext[:0]
	cur := iv
	inserted := false
	pos := cur.Start
	for _, g := range s.sackedIv {
		if g.End < cur.Start {
			out = append(out, g)
			continue
		}
		if cur.End < g.Start {
			if !inserted {
				if pos < cur.End {
					fresh = append(fresh, sackRange{Start: pos, End: cur.End})
					pos = cur.End
				}
				out = append(out, cur)
				inserted = true
			}
			out = append(out, g)
			continue
		}
		// Overlap: the gap before g (if any) is fresh coverage.
		if pos < g.Start {
			fresh = append(fresh, sackRange{Start: pos, End: min(g.Start, cur.End)})
		}
		if g.End > pos {
			pos = g.End
		}
		if g.Start < cur.Start {
			cur.Start = g.Start
		}
		if g.End > cur.End {
			cur.End = g.End
		}
	}
	if !inserted {
		if pos < cur.End {
			fresh = append(fresh, sackRange{Start: pos, End: cur.End})
		}
		out = append(out, cur)
	}
	s.sackedNext = s.sackedIv[:0]
	s.sackedIv = out
	s.freshScratch = fresh
	return fresh
}

func (s *refSender) removeFromLostQueue(seg int64) {
	for i, v := range s.lostQueue {
		if v == seg {
			s.lostQueue = append(s.lostQueue[:i], s.lostQueue[i+1:]...)
			return
		}
	}
}

func (s *refSender) detectLosses(now time.Duration) int64 {
	if s.highestSacked <= s.sndUna {
		return 0
	}
	// Sweep newly exposed territory below highestSacked into the hole
	// candidate set (each segment is swept once, so detection is
	// amortized O(1) per segment rather than O(window) per ACK).
	start := segStart(s.sndUna, s.cfg.MSS)
	if s.holeScan > start {
		start = s.holeScan
	}
	for seg := start; seg < s.highestSacked && seg < s.sndNxt; seg += int64(s.cfg.MSS) {
		if info, ok := s.state[seg]; ok && (info.st == refStInflight || info.st == refStRetransInFlight) {
			s.holes[seg] = struct{}{}
		}
		s.holeScan = seg + int64(s.cfg.MSS)
	}

	var newly int64
	thresh := int64(s.cfg.DupThresh) * int64(s.cfg.MSS)
	// RACK-lite reordering window for re-detecting lost retransmissions:
	// a retransmitted segment still unacknowledged well past an RTT,
	// with DupThresh segments SACKed above it, was lost again. Without
	// this, a retransmission dropped at a still-full buffer is only
	// recoverable by RTO.
	rackWindow := s.rtt.SRTT() + s.rtt.SRTT()/4 + 4*time.Millisecond
	if s.rtt.SRTT() == 0 {
		rackWindow = s.rtt.RTO()
	}
	var marked []int64
	for seg := range s.holes {
		if seg < s.sndUna {
			delete(s.holes, seg)
			continue
		}
		info, ok := s.state[seg]
		if !ok || info.st == refStSacked || info.st == refStLost {
			delete(s.holes, seg)
			continue
		}
		if seg+thresh > s.highestSacked {
			continue
		}
		// The adaptive reordering window (zero unless AdaptReoWnd has
		// grown it) delays both markings by the extra tolerance; with
		// reoWnd == 0 the refStInflight condition reduces to the plain
		// DupThresh rule since sentAt is always in the past.
		lost := (info.st == refStInflight && now-info.sentAt > s.reoWnd) ||
			(info.st == refStRetransInFlight && now-info.sentAt > rackWindow+s.reoWnd)
		if lost {
			l := s.segLen(seg)
			s.inflight -= l
			info.st = refStLost
			info.lostBy = uint8(obs.CauseFast)
			s.state[seg] = info
			s.insertLost(seg)
			delete(s.holes, seg)
			newly += l
			marked = append(marked, seg)
		}
	}
	if r := s.rec; r != nil {
		sort.Slice(marked, func(i, j int) bool { return marked[i] < marked[j] })
		for _, seg := range marked {
			r.C.LossDetected++
			r.Record(now, obs.EvLossDetected, seg, s.segLen(seg), 0, 0)
		}
	}
	return newly
}

func (s *refSender) insertLost(seg int64) {
	// Keep the queue sorted; losses are detected mostly in order so
	// append + bubble is cheap.
	s.lostQueue = append(s.lostQueue, seg)
	for i := len(s.lostQueue) - 1; i > 0 && s.lostQueue[i] < s.lostQueue[i-1]; i-- {
		s.lostQueue[i], s.lostQueue[i-1] = s.lostQueue[i-1], s.lostQueue[i]
	}
}

// --- RTO ---

// rtoNeeded reports whether unacknowledged data still depends on the
// retransmission timer. The highestSacked term covers the reneging
// corner: when every outstanding segment is SACKed there is nothing in
// flight and nothing queued, yet sndUna hasn't advanced — if the
// receiver then renegs, only a timeout can recover. For a sane
// receiver the term is redundant (all-SACKed flows complete on the
// cumulative ACK already in the pipe), so behavior is unchanged.
func (s *refSender) rtoNeeded() bool {
	return s.inflight > 0 || len(s.lostQueue) > 0 || s.highestSacked > s.sndUna
}

func (s *refSender) armRTO() {
	if s.finished || s.failed || !s.rtoNeeded() {
		return
	}
	if !s.rtoTimer.Active() {
		s.rtoTimer = s.sim.ScheduleEvent(s.rtt.RTO(), refFireRTOEv, s, nil)
	}
	s.armTLP()
}

// armTLP schedules a RACK-style tail loss probe well before the RTO:
// if an entire tail of the flight is lost, no dupacks arrive and —
// without a probe — only a backed-off timeout can recover, which
// starves small-window flows in contested buffers (RFC 8985).
func (s *refSender) armTLP() {
	if s.finished || !s.tlpArmed || s.inflight <= 0 || s.tlpTimer.Active() {
		return
	}
	pto := 2 * s.rtt.SRTT()
	if pto == 0 || pto > s.rtt.RTO()/2 {
		pto = s.rtt.RTO() / 2
	}
	if pto < 10*time.Millisecond {
		pto = 10 * time.Millisecond
	}
	s.tlpTimer = s.sim.ScheduleEvent(pto, refFireTLPEv, s, nil)
}

// fireTLP retransmits the highest outstanding segment once per flight,
// soliciting the SACK feedback that lets fast recovery run instead of
// an RTO. The congestion controller is not informed (the probe itself
// is not a loss signal).
func (s *refSender) fireTLP() {
	if s.finished || s.failed || !s.tlpArmed || s.inflight <= 0 {
		return
	}
	var tail int64 = -1
	for seg := segStart(s.sndNxt-1, s.cfg.MSS); seg >= s.sndUna; seg -= int64(s.cfg.MSS) {
		if info, ok := s.state[seg]; ok && (info.st == refStInflight || info.st == refStRetransInFlight) {
			tail = seg
			break
		}
	}
	if tail < 0 {
		return
	}
	s.tlpArmed = false
	s.stats.TLPs++
	l := s.segLen(tail)
	if r := s.rec; r != nil {
		r.C.TLPFires++
		r.Record(s.sim.Now(), obs.EvTLPFired, tail, l, 0, 0)
	}
	// Re-send the tail as a retransmission (accounting: the original is
	// written off, the probe takes its place in flight).
	s.inflight -= l
	info := s.state[tail]
	info.st = refStLost
	info.lostBy = uint8(obs.CauseTLP)
	s.state[tail] = info
	s.insertLost(tail)
	s.emit(tail, l, true)
}

func (s *refSender) resetRTO() {
	s.tlpTimer.Stop()
	if s.finished || s.failed || !s.rtoNeeded() {
		s.rtoTimer.Stop()
		return
	}
	// Rearm in place when the timer is still pending: one O(1) wheel
	// unlink+relink instead of Stop + slot release + fresh Schedule.
	// Reset takes a fresh arm sequence number, so same-deadline
	// ordering is identical to the Stop+Schedule path it replaces.
	if t, ok := s.rtoTimer.Reset(s.rtt.RTO()); ok {
		s.rtoTimer = t
	} else {
		s.rtoTimer = s.sim.ScheduleEvent(s.rtt.RTO(), refFireRTOEv, s, nil)
	}
	s.armTLP()
}

func (s *refSender) fireRTO() {
	if s.finished || s.failed {
		return
	}
	if !s.rtoNeeded() {
		return
	}
	now := s.sim.Now()
	s.stats.RTOs++
	s.consecRTOs++
	if s.cfg.MaxConsecRTOs > 0 && s.consecRTOs > s.cfg.MaxConsecRTOs {
		s.fail(now, fmt.Errorf("%w (%d fires, stuck at seq %d)", ErrRetransLimit, s.consecRTOs, s.sndUna))
		return
	}
	s.tlpArmed = false
	s.tlpTimer.Stop()
	s.rtt.Backoff()
	if r := s.rec; r != nil {
		r.C.RTOFires++
		r.Record(now, obs.EvRTOFired, s.sndUna, 0, int64(s.stats.RTOs), 0)
	}
	// Arm F-RTO before the controller collapses: the first ACKs after
	// the timeout will either prove it spurious (pre-timeout echo with
	// progress) or confirm it.
	if s.cfg.FRTO {
		s.frtoPending = true
		s.frtoAt = now
		s.frtoUna = s.sndUna
		s.frtoNxt = s.sndNxt
	}
	s.ctrl.OnRTO(now)
	s.noteCwnd(now)
	// Mark everything outstanding as lost and rebuild the retransmit
	// queue from the scoreboard (go-back-N under the collapsed window).
	// Every segment the rebuild touches is re-attributed to the RTO —
	// including ones fast detection had already marked — so the
	// retransmit-cause partition reflects what actually queued the
	// resend that follows.
	s.lostQueue = s.lostQueue[:0]
	for seg := segStart(s.sndUna, s.cfg.MSS); seg < s.sndNxt; seg += int64(s.cfg.MSS) {
		info, ok := s.state[seg]
		if !ok {
			continue
		}
		switch info.st {
		case refStInflight, refStRetransInFlight:
			s.inflight -= s.segLen(seg)
			info.st = refStLost
			info.lostBy = uint8(obs.CauseRTO)
			s.state[seg] = info
			s.insertLost(seg)
		case refStLost:
			info.lostBy = uint8(obs.CauseRTO)
			s.state[seg] = info
			s.insertLost(seg)
		}
	}
	// The rebuild skips SACKed segments, so if the timeout fired with
	// the whole outstanding window selectively acked (only possible
	// when the receiver reneged and stopped advancing the cumulative
	// point), there is still nothing to retransmit. Treat the SACK
	// state as lies and repair from sndUna.
	if len(s.lostQueue) == 0 && s.inflight <= 0 && s.sndUna < s.sndNxt {
		s.onSackReneg(now)
	}
	s.inRecovery = false
	s.nextRelease = 0
	s.trySend()
	if !s.rtoTimer.Active() {
		s.rtoTimer = s.sim.ScheduleEvent(s.rtt.RTO(), refFireRTOEv, s, nil)
	}
}

// undoRTO reverts the most recent retransmission timeout after F-RTO
// proved it spurious: segments the timeout wrote off but that were
// never actually retransmitted go back in flight, the congestion
// controller restores its pre-timeout window (when it can), and the
// exponential backoff is cleared.
func (s *refSender) undoRTO(now time.Duration) {
	s.frtoPending = false
	s.stats.SpuriousRTOs++
	s.rtt.UndoBackoff()
	if u, ok := s.ctrl.(cc.Undoer); ok {
		u.UndoRTO(now)
	}
	// Un-mark segments the RTO declared lost that are still waiting in
	// the retransmit queue: their original transmissions are alive in
	// the network (that is what the pre-timeout echo proved). Segments
	// already retransmitted, or marked lost by fast detection before
	// the timeout, stay as they are.
	kept := s.lostQueue[:0]
	for _, seg := range s.lostQueue {
		info := s.state[seg]
		if obs.RetransCause(info.lostBy) == obs.CauseRTO {
			info.st = refStInflight
			info.lostBy = 0
			s.state[seg] = info
			s.inflight += s.segLen(seg)
			if seg+s.segLen(seg) <= s.highestSacked {
				s.holes[seg] = struct{}{} // back under RACK's eye
			}
			continue
		}
		kept = append(kept, seg)
	}
	s.lostQueue = kept
	s.bumpReoWnd()
	if r := s.rec; r != nil {
		r.C.SpuriousRTOUndos++
		r.Record(now, obs.EvRTOUndone, s.sndUna, 0, int64(s.stats.SpuriousRTOs), s.ctrl.CwndBytes())
	}
	s.noteCwnd(now)
	s.resetRTO()
}

// onSackReneg repairs the scoreboard after the receiver discarded
// SACKed data (RFC 2018 reneging): every SACKed segment above sndUna
// is written off — its delivered credit reversed — and queued for
// retransmission, and the SACK interval set is cleared so the
// receiver's next (truthful) blocks rebuild it from scratch.
func (s *refSender) onSackReneg(now time.Duration) {
	s.stats.SackRenegs++
	if r := s.rec; r != nil {
		r.C.SackRenegings++
		r.Record(now, obs.EvRenegDetected, s.sndUna, 0, s.highestSacked, 0)
	}
	for seg := segStart(s.sndUna, s.cfg.MSS); seg < s.sndNxt; seg += int64(s.cfg.MSS) {
		info, ok := s.state[seg]
		if !ok || info.st != refStSacked {
			continue
		}
		l := s.segLen(seg)
		s.delivered -= l
		info.st = refStLost
		info.lostBy = uint8(obs.CauseReneg)
		s.state[seg] = info
		s.insertLost(seg)
	}
	s.sackedIv = s.sackedIv[:0]
	s.highestSacked = s.sndUna
	for seg := range s.holes {
		delete(s.holes, seg)
	}
	s.holeScan = segStart(s.sndUna, s.cfg.MSS)
}

// fail terminates the flow with a permanent error: timers stop, no
// further sends or ACK processing happen, and the owner learns via
// OnFail / Err.
func (s *refSender) fail(now time.Duration, err error) {
	s.failed = true
	s.failErr = err
	s.rtoTimer.Stop()
	s.tlpTimer.Stop()
	s.kickTimer.Stop()
	if r := s.rec; r != nil {
		r.C.FlowAborts++
		r.Record(now, obs.EvFlowAbort, s.sndUna, 0, int64(s.stats.RTOs), 0)
	}
	if s.OnFail != nil {
		s.OnFail(now, err)
	}
}

// bumpReoWnd widens the adaptive RACK reordering window after a loss
// marking was contradicted — evidence the path reorders more than the
// current window tolerates. Grows in minRTT/4 steps, capped at one
// SRTT (RFC 8985's DSACK-driven adaptation, with contradicted marks
// as the signal since the simulator has no DSACK).
func (s *refSender) bumpReoWnd() {
	if !s.cfg.AdaptReoWnd {
		return
	}
	step := s.minRTT.Get() / 4
	if step < time.Millisecond {
		step = time.Millisecond
	}
	lim := s.rtt.SRTT()
	if lim == 0 {
		lim = s.rtt.RTO()
	}
	if s.reoWnd += step; s.reoWnd > lim {
		s.reoWnd = lim
	}
}

func (s *refSender) finish(now time.Duration) {
	s.finished = true
	s.doneAt = now
	s.rtoTimer.Stop()
	s.tlpTimer.Stop()
	s.kickTimer.Stop()
	if s.OnComplete != nil {
		s.OnComplete(now)
	}
}
