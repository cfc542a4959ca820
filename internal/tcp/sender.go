package tcp

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"suss/internal/cc"
	"suss/internal/netsim"
	"suss/internal/obs"
	"suss/internal/wire"
)

// ErrRetransLimit is the terminal flow error when Config.MaxConsecRTOs
// consecutive retransmission timeouts fire without any forward
// progress — the path is treated as dead and the flow gives up cleanly
// instead of backing off forever.
var ErrRetransLimit = errors.New("tcp: consecutive retransmission timeouts exceeded limit")

// SenderStats summarizes a flow from the sender's perspective,
// computed from the flow's counter block.
type SenderStats struct {
	SegmentsSent    int
	Retransmissions int
	RTOs            int
	SpuriousRTOs    int // timeouts later proven spurious and undone (F-RTO)
	SackRenegs      int // SACK-reneging episodes detected and repaired
	TLPs            int // tail loss probes sent
	LossEvents      int // fast-retransmit congestion events
	Delivered       int64
}

// EarliestSender is an optional controller extension: a controller may
// gate transmissions until a future time (SUSS uses it for the guard
// interval before its pacing period). Zero means "no gate".
type EarliestSender interface {
	EarliestSend(now time.Duration) time.Duration
}

// Sender drives one bulk flow of size bytes through a wire.Conn,
// under the congestion controller ctrl. It implements cc.Env for the
// controller. Every segment it emits is encoded to frame bytes by the
// conn's backend, and every ACK it processes arrives as a strictly
// decoded wire.Segment — the sender's view of its peer is exactly
// what survives the framing, on the simulator and on a real socket
// alike.
type Sender struct {
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

	// sb is the per-segment scoreboard: a ring addressed by segment
	// number that also carries the retransmit queue and the list of
	// retransmissions in flight (see scoreboard.go).
	sb       scoreboard
	inflight int64 // bytes presumed in the network

	highestSacked int64
	delivered     int64

	// sacked is the merged set of SACKed intervals above sndUna, so
	// repeated SACK blocks (which re-announce whole contiguous ranges)
	// are processed only for their newly-covered parts; fresh is the
	// scratch those parts are returned in.
	sacked rangeSet
	fresh  []sackRange
	// newlyLost is detectLosses' scratch: the segments one ACK marked
	// lost, gathered so an observed run records them in sequence order.
	newlyLost []int32

	rtt    rttEstimator
	minRTT cc.MinRTTTracker

	inRecovery  bool
	recoveryEnd int64

	rtoTimer    netsim.Timer
	tlpTimer    netsim.Timer
	tlpArmed    bool // a probe may fire for the current flight
	kickTimer   netsim.Timer
	nextRelease time.Duration
	// ccChunks is the list of chunks backing the handles Schedule
	// returns, kept across resets; ccCur is the one being filled and
	// ccUsed how much of it is. A life rewinds to the first chunk and
	// never returns to a chunk it has left.
	ccChunks *timerChunk
	ccCur    *timerChunk
	ccUsed   int

	started  bool
	finished bool

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

	// c is the flow's counter block, counted on every run; lastCwnd
	// backs CwndChanges.
	c        *obs.FlowCounters
	lastCwnd int64

	// rec, when non-nil, is the attached flight recorder; every event
	// site is guarded by a nil check so an unobserved sender pays one
	// branch per site.
	rec *obs.FlowRecorder

	// OnAckTrace, when non-nil, observes state after each processed
	// ACK (for cwnd/RTT time series).
	OnAckTrace func(now time.Duration, cwnd int64, srtt time.Duration, delivered int64)
}

// NewSender creates a sender for one flow transmitting through conn,
// with a counter block of its own. The caller must install HandleAck
// as the conn's handler (NewFlowOver does both).
func NewSender(conn wire.Conn, cfg Config, flow netsim.FlowID, size int64, ctrl cc.Controller) *Sender {
	s := new(struct {
		Sender
		c obs.FlowCounters
	})
	s.reset(conn, cfg, flow, size, ctrl, &s.c)
	return &s.Sender
}

// reset makes s exactly what NewSender returns, counting into the zero
// block c and keeping the buffers the last flow grew. The literal names
// only those, so every other field — hooks, recorder, timers — is zero
// without being listed. The ring is zero outside the last window, so
// only that is cleared.
func (s *Sender) reset(conn wire.Conn, cfg Config, flow netsim.FlowID, size int64, ctrl cc.Controller, c *obs.FlowCounters) {
	if size/int64(cfg.MSS) >= math.MaxInt32 {
		panic("tcp: flow size exceeds the scoreboard's 2^31 segments")
	}
	if len(s.sb.slots) > 0 {
		mss := int64(s.cfg.MSS)
		s.sb.clear(s.segNo(s.sndUna), s.segNo(s.sndNxt+mss-1))
	}
	s.sacked.reset()
	*s = Sender{
		conn:      conn,
		sim:       conn.Clock(),
		cfg:       cfg,
		flow:      flow,
		ctrl:      ctrl,
		size:      size,
		sb:        scoreboard{slots: s.sb.slots, lost: s.sb.lost[:0], rtxHead: noSeg, rtxTail: noSeg},
		sacked:    s.sacked,
		fresh:     s.fresh[:0],
		newlyLost: s.newlyLost[:0],
		ccChunks:  s.ccChunks,
		ccCur:     s.ccChunks,
		rtt:       rttEstimator{minRTO: cfg.MinRTO, maxRTO: cfg.MaxRTO},
		c:         c,
	}
}

// --- cc.Env ---

// Now implements cc.Env.
func (s *Sender) Now() time.Duration { return s.sim.Now() }

// Schedule implements cc.Env. The handle it returns points into a
// chunk of timer values the sender keeps, so a controller that arms a
// timer per pacing tick costs one allocation per 64 ticks instead of
// one boxed netsim.Timer each, and a reset sender refills the chunks
// its earlier lives grew before it allocates another.
func (s *Sender) Schedule(d time.Duration, fn func()) cc.Timer {
	if s.ccCur == nil || s.ccUsed == len(s.ccCur.t) {
		next := &s.ccChunks
		if s.ccCur != nil {
			next = &s.ccCur.next
		}
		if *next == nil {
			*next = new(timerChunk)
		}
		s.ccCur, s.ccUsed = *next, 0
	}
	t := &s.ccCur.t[s.ccUsed]
	s.ccUsed++
	*t = s.sim.Schedule(d, fn)
	return t
}

// timerChunk is one link of a sender's list of controller-timer values.
type timerChunk struct {
	t    [64]netsim.Timer
	next *timerChunk
}

// Kick implements cc.Env.
func (s *Sender) Kick() { s.trySend() }

// MSS implements cc.Env.
func (s *Sender) MSS() int { return s.cfg.MSS }

// --- public accessors ---

// Stats returns the sender's summary, computed from the flow's
// counter block. RTOs counts every timeout that fired, the one that
// made the flow give up (a flow abort, not an RTO fire) included.
func (s *Sender) Stats() SenderStats {
	c := s.c
	return SenderStats{
		SegmentsSent:    int(c.SegsSent + c.SegsRetrans),
		Retransmissions: int(c.SegsRetrans),
		RTOs:            int(c.RTOFires + c.FlowAborts),
		SpuriousRTOs:    int(c.SpuriousRTOUndos),
		SackRenegs:      int(c.SackRenegings),
		TLPs:            int(c.TLPFires),
		LossEvents:      int(c.LossEvents),
		Delivered:       s.delivered,
	}
}

// Counters returns the flow's counter block, which the sender, a
// Flow's receiver and the congestion controller count into.
func (s *Sender) Counters() *obs.FlowCounters { return s.c }

// Controller returns the congestion controller driving this sender.
func (s *Sender) Controller() cc.Controller { return s.ctrl }

// SRTT returns the smoothed RTT estimate.
func (s *Sender) SRTT() time.Duration { return s.rtt.SRTT() }

// MinRTT returns the connection-lifetime minimum RTT.
func (s *Sender) MinRTT() time.Duration { return s.minRTT.Get() }

// Inflight returns bytes currently presumed in the network.
func (s *Sender) Inflight() int64 { return s.inflight }

// Finished reports whether every byte has been acknowledged.
func (s *Sender) Finished() bool { return s.finished }

// Failed reports whether the flow gave up with a terminal error.
func (s *Sender) Failed() bool { return s.failed }

// Err returns the terminal flow error, or nil while the flow is
// healthy. A failed flow never reports Finished.
func (s *Sender) Err() error { return s.failErr }

// Delivered returns total bytes delivered (cumulative + SACKed).
func (s *Sender) Delivered() int64 { return s.delivered }

// SetController installs the congestion controller. Controllers need
// the sender as their cc.Env, so construction is two-phase: build the
// flow with a nil controller, then install one before Start.
func (s *Sender) SetController(ctrl cc.Controller) { s.ctrl = ctrl }

// AttachRecorder installs a flight recorder for this sender's events.
// Pass nil to detach.
func (s *Sender) AttachRecorder(r *obs.FlowRecorder) { s.rec = r }

// noteCwnd counts a congestion-window change observed after a
// controller callback returned.
func (s *Sender) noteCwnd(now time.Duration) {
	if cw := s.ctrl.CwndBytes(); cw != s.lastCwnd {
		s.c.CwndChanges++
		if r := s.rec; r != nil {
			r.Record(now, obs.EvCwndChanged, 0, 0, cw, s.lastCwnd)
		}
		s.lastCwnd = cw
	}
}

// Start begins transmitting at the current virtual time.
func (s *Sender) Start() {
	if s.started {
		return
	}
	if s.ctrl == nil {
		panic("tcp: Start before SetController")
	}
	s.started = true
	s.lastCwnd = s.ctrl.CwndBytes()
	s.trySend()
}

// segNo returns the number of the segment holding byte seq.
func (s *Sender) segNo(seq int64) int32 { return int32(seq / int64(s.cfg.MSS)) }

// segLen returns the payload length of the segment starting at seg.
func (s *Sender) segLen(seg int64) int64 {
	l := int64(s.cfg.MSS)
	if seg+l > s.size {
		l = s.size - seg
	}
	return l
}

// --- transmission ---

// The sender's three self-timers as package-level EventFuncs: arming
// them stores the *Sender in the timer slot instead of allocating a
// bound-method closure per arm (the RTO re-arms on every cumulative
// advance, so this is a per-ACK saving).
func senderTrySendEv(ctx, _ any) { ctx.(*Sender).trySend() }
func senderFireRTOEv(ctx, _ any) { ctx.(*Sender).fireRTO() }
func senderFireTLPEv(ctx, _ any) { ctx.(*Sender).fireTLP() }

func (s *Sender) trySend() {
	if !s.started || s.finished || s.failed {
		return
	}
	for {
		var seg int64
		retrans := false
		switch {
		case len(s.sb.lost) > 0:
			seg = int64(s.sb.lost[0]) * int64(s.cfg.MSS)
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

func (s *Sender) armKick(d time.Duration) {
	if s.kickTimer.Active() {
		return
	}
	s.kickTimer = s.sim.ScheduleEvent(d, senderTrySendEv, s, nil)
	s.armRTO()
}

func (s *Sender) emit(seg, l int64, retrans bool) {
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
	n := s.segNo(seg)
	var cause uint8
	if retrans {
		sl := s.sb.at(n)
		cause = sl.lostBy
		s.sb.removeLost(n)
		*sl = slot{st: stRetransInFlight, sentAt: now, delivAtSend: s.delivered, retrans: true}
		s.sb.rtxAppend(n) // RACK may need to re-detect it
		s.c.SegsRetrans++
		switch obs.RetransCause(cause) {
		case obs.CauseFast:
			s.c.RetransFast++
		case obs.CauseRTO:
			s.c.RetransRTO++
		case obs.CauseTLP:
			s.c.RetransTLP++
		case obs.CauseReneg:
			s.c.RetransReneg++
		}
	} else {
		// Karn's rule: only fresh transmissions carry a timestamp for the
		// receiver to echo — the option's presence is the echo-validity
		// signal on the wire, so retransmissions omit it entirely.
		ws.HasTS = true
		ws.TSVal = wire.WrapTS(now)
		s.sb.reserve(s.segNo(s.sndUna), n)
		*s.sb.at(n) = slot{st: stInflight, sentAt: now, delivAtSend: s.delivered}
		s.sndNxt = seg + l
		s.c.SegsSent++
	}
	s.inflight += l
	if r := s.rec; r != nil {
		if retrans {
			r.Record(now, obs.EvSegRetrans, seg, l, int64(cause), 0)
		} else {
			r.Record(now, obs.EvSegSent, seg, l, s.inflight, 0)
		}
	}
	s.ctrl.OnPacketSent(now, int(l), seg, retrans)
	wrote := s.conn.Send(ws, wire.SendMeta{WireSize: int(l) + s.cfg.HeaderBytes})
	s.c.WireFramesOut++
	s.c.WireBytesOut += int64(wrote)
	s.armRTO()
}

// --- acknowledgment processing ---

// HandleAck processes one decoded ACK segment addressed to this flow.
// It is the flow's wire.Handler: seg is the conn's scratch segment,
// valid only for the duration of the call, and wireLen is the frame's
// wire length for byte accounting. The 32-bit wire fields are
// unwrapped against the sender's 64-bit state here, at the boundary,
// so everything below speaks full sequence numbers.
func (s *Sender) HandleAck(seg *wire.Segment, wireLen int) {
	if seg.IsData() || seg.Flags&wire.FlagACK == 0 || s.finished || s.failed || !s.started {
		return
	}
	now := s.sim.Now()
	s.c.WireFramesIn++
	s.c.WireBytesIn += int64(wireLen)
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

	mss := int64(s.cfg.MSS)

	// Cumulative advance. Nothing at or beyond sndNxt is on the
	// scoreboard, whatever the peer claims to acknowledge.
	if cumAck > s.sndUna {
		end := s.segNo(min(cumAck, s.sndNxt) + mss - 1)
		for n := s.segNo(s.sndUna); n < end; n++ {
			sl := s.sb.at(n)
			l := s.segLen(int64(n) * mss)
			switch sl.st {
			case stNone:
				continue // the head segment, retired by an earlier partial ACK
			case stInflight, stRetransInFlight:
				s.sb.leaveFlight(sl)
				s.inflight -= l
				s.delivered += l
				newBytes += l
				bwSample = s.rateSample(sl, now, bwSample)
			case stLost:
				s.sb.removeLost(n)
				s.delivered += l
				newBytes += l
				// The original transmission was acknowledged while the
				// segment was still marked lost: the loss marking was
				// contradicted, so any retransmission is (or would have
				// been) spurious.
				s.c.SpuriousRetrans++
				s.bumpReoWnd()
			case stSacked:
				// already counted
			}
			*sl = slot{}
		}
		s.sndUna = cumAck
		s.sacked.trimBelow(s.sndUna)
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
		s.fresh = s.sacked.add(r, s.fresh[:0])
		for _, nr := range s.fresh {
			for n := s.segNo(nr.Start); int64(n)*mss < min(nr.End, s.sndNxt); n++ {
				seg := int64(n) * mss
				sl := s.sb.at(n)
				if sl.st == stNone || sl.st == stSacked {
					continue
				}
				l := s.segLen(seg)
				// Only fully-covered segments count as SACKed.
				if seg < nr.Start || seg+l > nr.End {
					continue
				}
				switch sl.st {
				case stInflight, stRetransInFlight:
					s.sb.leaveFlight(sl)
					s.inflight -= l
					bwSample = s.rateSample(sl, now, bwSample)
				case stLost:
					s.sb.removeLost(n)
					// Selectively acked while marked lost: contradicted
					// loss marking, same as the cumulative case above.
					s.c.SpuriousRetrans++
					s.bumpReoWnd()
				}
				sl.st = stSacked
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
	// segment sitting in stSacked while sndUna hasn't covered it means
	// the receiver threw previously-SACKed data away (RFC 2018 allows
	// this under memory pressure). Discard the reneged scoreboard state
	// and repair by retransmission. Reverse-path ACK reordering can
	// false-trigger this; the consequence is a conservative retransmit,
	// never stalled or corrupted state.
	if s.sndUna < s.sndNxt && s.sb.at(s.segNo(s.sndUna)).st == stSacked {
		s.onSackReneg(now)
	}

	s.c.AcksSeen++
	s.c.SackRanges += int64(seg.NSack)
	if r := s.rec; r != nil {
		r.Record(now, obs.EvAckRecvd, cumAck, newBytes, s.inflight, 0)
		if seg.NSack > 0 {
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
		s.c.LossEvents++
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
		s.finish()
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
func (s *Sender) rateSample(sl *slot, now time.Duration, cur float64) float64 {
	if sl.retrans || sl.sentAt >= now {
		return cur
	}
	elapsed := (now - sl.sentAt).Seconds()
	if bw := float64(s.delivered-sl.delivAtSend) * 8 / elapsed; bw > 0 {
		return bw
	}
	return cur
}

// markLost moves segment n, in flight or SACKed, to stLost on account
// of cause and queues it for retransmission. Byte accounting is the
// caller's.
func (s *Sender) markLost(n int32, sl *slot, cause obs.RetransCause) {
	s.sb.leaveFlight(sl)
	sl.st, sl.lostBy = stLost, uint8(cause)
	s.sb.pushLost(n)
}

// fastLost writes in-flight segment n off as lost by fast detection and
// returns its length.
func (s *Sender) fastLost(n int32, sl *slot) int64 {
	l := s.segLen(int64(n) * int64(s.cfg.MSS))
	s.inflight -= l
	s.markLost(n, sl, obs.CauseFast)
	s.c.LossDetected++
	if s.rec != nil {
		s.newlyLost = append(s.newlyLost, n)
	}
	return l
}

// detectLosses applies the marking rule to the scoreboard: a segment
// at or above sndUna whose start lies DupThresh segments or more below
// highestSacked (RFC 6675) is lost once its latest transmission is
// older than reoWnd if that was the first, or than rackWindow+reoWnd if
// it was a retransmission. It returns the bytes newly marked.
//
// First transmissions are found by a sequence sweep that only moves
// forward, so each segment is examined once; it waits at the first one
// still too young (with reoWnd zero: sent within this very instant).
// Retransmissions are found by walking them in transmit order and
// stopping at the first one too young; one that is old enough but not
// yet DupThresh below highestSacked is passed over and met again.
func (s *Sender) detectLosses(now time.Duration) int64 {
	if s.highestSacked <= s.sndUna {
		return 0
	}
	mss := int64(s.cfg.MSS)
	// reach is the highest sequence a lost segment can start at.
	reach := s.highestSacked - int64(s.cfg.DupThresh)*mss
	if reach < s.sndUna {
		return 0
	}
	var newly int64
	sb := &s.sb
	end := s.segNo(min(reach, s.sndNxt-1)) + 1
	wait := int32(noSeg)
	for n := max(sb.lossScan, s.segNo(s.sndUna+mss-1)); n < end; n++ {
		sl := sb.at(n)
		if sl.st != stInflight {
			continue
		}
		// The adaptive reordering window (zero unless AdaptReoWnd has
		// grown it) delays this marking, and the one below, by the
		// extra tolerance.
		if now-sl.sentAt > s.reoWnd {
			newly += s.fastLost(n, sl)
		} else if wait == noSeg {
			wait = n
		}
	}
	if wait != noSeg {
		sb.lossScan = wait
	} else if end > sb.lossScan {
		sb.lossScan = end
	}

	// RACK-lite reordering window for re-detecting lost retransmissions:
	// a retransmitted segment still unacknowledged well past an RTT,
	// with DupThresh segments SACKed above it, was lost again. Without
	// this, a retransmission dropped at a still-full buffer is only
	// recoverable by RTO.
	rackWindow := s.rtt.SRTT() + s.rtt.SRTT()/4 + 4*time.Millisecond
	if s.rtt.SRTT() == 0 {
		rackWindow = s.rtt.RTO()
	}
	for n := sb.rtxHead; n != noSeg; {
		sl := sb.at(n)
		if now-sl.sentAt <= rackWindow+s.reoWnd {
			break
		}
		next := sl.next
		if seg := int64(n) * mss; seg >= s.sndUna && seg <= reach {
			newly += s.fastLost(n, sl)
		}
		n = next
	}

	if r := s.rec; r != nil {
		// Ascending sequence order, whichever half found them: the
		// event log of a run is a function of its inputs.
		slices.Sort(s.newlyLost)
		for _, n := range s.newlyLost {
			seg := int64(n) * mss
			r.Record(now, obs.EvLossDetected, seg, s.segLen(seg), 0, 0)
		}
		s.newlyLost = s.newlyLost[:0]
	}
	return newly
}

// --- RTO ---

// rtoNeeded reports whether unacknowledged data still depends on the
// retransmission timer. The highestSacked term covers the reneging
// corner: when every outstanding segment is SACKed there is nothing in
// flight and nothing queued, yet sndUna hasn't advanced — if the
// receiver then renegs, only a timeout can recover. For a sane
// receiver the term is redundant (all-SACKed flows complete on the
// cumulative ACK already in the pipe), so behavior is unchanged.
func (s *Sender) rtoNeeded() bool {
	return s.inflight > 0 || len(s.sb.lost) > 0 || s.highestSacked > s.sndUna
}

func (s *Sender) armRTO() {
	if s.finished || s.failed || !s.rtoNeeded() {
		return
	}
	if !s.rtoTimer.Active() {
		s.rtoTimer = s.sim.ScheduleEvent(s.rtt.RTO(), senderFireRTOEv, s, nil)
	}
	s.armTLP()
}

// armTLP schedules a RACK-style tail loss probe well before the RTO:
// if an entire tail of the flight is lost, no dupacks arrive and —
// without a probe — only a backed-off timeout can recover, which
// starves small-window flows in contested buffers (RFC 8985).
func (s *Sender) armTLP() {
	if s.finished || !s.tlpArmed || s.inflight <= 0 || s.tlpTimer.Active() {
		return
	}
	s.tlpTimer = s.sim.ScheduleEvent(s.pto(), senderFireTLPEv, s, nil)
}

// pto is the tail loss probe's timeout: two smoothed RTTs, at most
// half the RTO and at least 10 ms.
func (s *Sender) pto() time.Duration {
	pto := 2 * s.rtt.SRTT()
	if pto == 0 || pto > s.rtt.RTO()/2 {
		pto = s.rtt.RTO() / 2
	}
	return max(pto, 10*time.Millisecond)
}

// fireTLP retransmits the highest outstanding segment once per flight,
// soliciting the SACK feedback that lets fast recovery run instead of
// an RTO. The congestion controller is not informed (the probe itself
// is not a loss signal).
func (s *Sender) fireTLP() {
	if s.finished || s.failed || !s.tlpArmed || s.inflight <= 0 {
		return
	}
	// The probe is the highest outstanding sequence, not the latest
	// transmission (a retransmitted hole can be younger than the tail),
	// so it is found on the ring from the top. Once per flight.
	mss := int64(s.cfg.MSS)
	tail := int32(noSeg)
	for n := s.segNo(s.sndNxt - 1); int64(n)*mss >= s.sndUna; n-- {
		if st := s.sb.at(n).st; st == stInflight || st == stRetransInFlight {
			tail = n
			break
		}
	}
	if tail == noSeg {
		return
	}
	s.tlpArmed = false
	s.c.TLPFires++
	seg := int64(tail) * mss
	l := s.segLen(seg)
	if r := s.rec; r != nil {
		r.Record(s.sim.Now(), obs.EvTLPFired, seg, l, 0, 0)
	}
	// Re-send the tail as a retransmission (accounting: the original is
	// written off, the probe takes its place in flight).
	s.inflight -= l
	s.markLost(tail, s.sb.at(tail), obs.CauseTLP)
	s.emit(seg, l, true)
}

// resetRTO restarts the RTO, then the tail loss probe, or stops both
// when nothing is left to guard. A pending timer is rearmed with
// Timer.Reset, which mostly leaves it in its wheel bucket and takes a
// fresh arm sequence as a new Schedule would, so ordering is as if both
// were stopped and scheduled anew.
func (s *Sender) resetRTO() {
	if s.finished || s.failed || !s.rtoNeeded() {
		s.tlpTimer.Stop()
		s.rtoTimer.Stop()
		return
	}
	if t, ok := s.rtoTimer.Reset(s.rtt.RTO()); ok {
		s.rtoTimer = t
	} else {
		s.rtoTimer = s.sim.ScheduleEvent(s.rtt.RTO(), senderFireRTOEv, s, nil)
	}
	if !s.tlpArmed || s.inflight <= 0 {
		s.tlpTimer.Stop()
	} else if t, ok := s.tlpTimer.Reset(s.pto()); ok {
		s.tlpTimer = t
	} else {
		s.tlpTimer = s.sim.ScheduleEvent(s.pto(), senderFireTLPEv, s, nil)
	}
}

func (s *Sender) fireRTO() {
	if s.finished || s.failed {
		return
	}
	if !s.rtoNeeded() {
		return
	}
	now := s.sim.Now()
	s.consecRTOs++
	if s.cfg.MaxConsecRTOs > 0 && s.consecRTOs > s.cfg.MaxConsecRTOs {
		s.fail(now, fmt.Errorf("%w (%d fires, stuck at seq %d)", ErrRetransLimit, s.consecRTOs, s.sndUna))
		return
	}
	s.tlpArmed = false
	s.tlpTimer.Stop()
	s.rtt.Backoff()
	s.c.RTOFires++
	if r := s.rec; r != nil {
		r.Record(now, obs.EvRTOFired, s.sndUna, 0, s.c.RTOFires, 0)
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
	mss := int64(s.cfg.MSS)
	sb := &s.sb
	sb.lost = sb.lost[:0]
	sb.rtxHead, sb.rtxTail = noSeg, noSeg
	for n := s.segNo(s.sndUna); int64(n)*mss < s.sndNxt; n++ {
		sl := sb.at(n)
		switch sl.st {
		case stInflight, stRetransInFlight:
			s.inflight -= s.segLen(int64(n) * mss)
			sl.st = stLost
			fallthrough
		case stLost:
			sl.lostBy = uint8(obs.CauseRTO)
			sb.pushLost(n) // ascending, so each push lands in place
		}
	}
	// The rebuild skips SACKed segments, so if the timeout fired with
	// the whole outstanding window selectively acked (only possible
	// when the receiver reneged and stopped advancing the cumulative
	// point), there is still nothing to retransmit. Treat the SACK
	// state as lies and repair from sndUna.
	if len(sb.lost) == 0 && s.inflight <= 0 && s.sndUna < s.sndNxt {
		s.onSackReneg(now)
	}
	s.inRecovery = false
	s.nextRelease = 0
	s.trySend()
	if !s.rtoTimer.Active() {
		s.rtoTimer = s.sim.ScheduleEvent(s.rtt.RTO(), senderFireRTOEv, s, nil)
	}
}

// undoRTO reverts the most recent retransmission timeout after F-RTO
// proved it spurious: segments the timeout wrote off but that were
// never actually retransmitted go back in flight, the congestion
// controller restores its pre-timeout window (when it can), and the
// exponential backoff is cleared.
func (s *Sender) undoRTO(now time.Duration) {
	s.frtoPending = false
	s.c.SpuriousRTOUndos++
	s.rtt.UndoBackoff()
	if u, ok := s.ctrl.(cc.Undoer); ok {
		u.UndoRTO(now)
	}
	// Un-mark segments the RTO declared lost that are still waiting in
	// the retransmit queue: their original transmissions are alive in
	// the network (that is what the pre-timeout echo proved). Segments
	// already retransmitted, or marked lost by fast detection before
	// the timeout, stay as they are.
	mss := int64(s.cfg.MSS)
	for n := s.segNo(s.sndUna); int64(n)*mss < s.sndNxt; n++ {
		sl := s.sb.at(n)
		if sl.st != stLost || obs.RetransCause(sl.lostBy) != obs.CauseRTO {
			continue
		}
		s.sb.removeLost(n)
		sl.st, sl.lostBy = stInflight, 0
		s.inflight += s.segLen(int64(n) * mss)
		// Back under the loss sweep's eye.
		s.sb.lossScan = min(s.sb.lossScan, n)
	}
	s.bumpReoWnd()
	if r := s.rec; r != nil {
		r.Record(now, obs.EvRTOUndone, s.sndUna, 0, s.c.SpuriousRTOUndos, s.ctrl.CwndBytes())
	}
	s.noteCwnd(now)
	s.resetRTO()
}

// onSackReneg repairs the scoreboard after the receiver discarded
// SACKed data (RFC 2018 reneging): every SACKed segment above sndUna
// is written off — its delivered credit reversed — and queued for
// retransmission, and the SACK interval set is cleared so the
// receiver's next (truthful) blocks rebuild it from scratch.
func (s *Sender) onSackReneg(now time.Duration) {
	s.c.SackRenegings++
	if r := s.rec; r != nil {
		r.Record(now, obs.EvRenegDetected, s.sndUna, 0, s.highestSacked, 0)
	}
	mss := int64(s.cfg.MSS)
	for n := s.segNo(s.sndUna); int64(n)*mss < s.sndNxt; n++ {
		sl := s.sb.at(n)
		if sl.st != stSacked {
			continue
		}
		s.delivered -= s.segLen(int64(n) * mss)
		s.markLost(n, sl, obs.CauseReneg)
	}
	s.sacked.reset()
	s.highestSacked = s.sndUna
	s.sb.lossScan = min(s.sb.lossScan, s.segNo(s.sndUna))
}

// fail terminates the flow with a permanent error: timers stop, no
// further sends or ACK processing happen, and the owner learns via
// Err.
func (s *Sender) fail(now time.Duration, err error) {
	s.failed = true
	s.failErr = err
	s.rtoTimer.Stop()
	s.tlpTimer.Stop()
	s.kickTimer.Stop()
	s.c.FlowAborts++
	if r := s.rec; r != nil {
		r.Record(now, obs.EvFlowAbort, s.sndUna, 0, s.c.RTOFires+s.c.FlowAborts, 0)
	}
}

// bumpReoWnd widens the adaptive RACK reordering window after a loss
// marking was contradicted — evidence the path reorders more than the
// current window tolerates. Grows in minRTT/4 steps, capped at one
// SRTT (RFC 8985's DSACK-driven adaptation, with contradicted marks
// as the signal since the simulator has no DSACK).
func (s *Sender) bumpReoWnd() {
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

func (s *Sender) finish() {
	s.finished = true
	s.rtoTimer.Stop()
	s.tlpTimer.Stop()
	s.kickTimer.Stop()
}

// AuditScoreboard recomputes the in-flight byte count, the retransmit
// queue and the retransmission list from the per-segment states and
// cross-checks them against the incrementally-maintained structures,
// the sweep pointer and the ring bounds. It returns a non-empty slice
// of discrepancy descriptions if the invariants are violated. Tests
// call this; production code never needs to.
func (s *Sender) AuditScoreboard() []string {
	var problems []string
	bad := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	sb := &s.sb
	mss := int64(s.cfg.MSS)
	base, top := s.segNo(s.sndUna), s.segNo(s.sndNxt+mss-1)
	if int(top-base) > len(sb.slots) {
		bad("window of %d segments exceeds the ring of %d", top-base, len(sb.slots))
		return problems
	}
	var inflight int64
	var lost, rtx int
	for n := base; n < top; n++ {
		sl := sb.at(n)
		switch sl.st {
		case stInflight:
			inflight += s.segLen(int64(n) * mss)
			if int64(n)*mss >= s.sndUna && n < sb.lossScan {
				bad("first transmission %d in flight below the loss sweep pointer %d", n, sb.lossScan)
			}
		case stRetransInFlight:
			inflight += s.segLen(int64(n) * mss)
			rtx++
		case stLost:
			lost++
			if i := int(sl.heapPos); i >= len(sb.lost) || sb.lost[i] != n {
				bad("lost segment %d missing from retransmit queue", n)
			}
		}
	}
	if inflight != s.inflight {
		bad("inflight counter %d != scoreboard %d", s.inflight, inflight)
	}
	for n := top; int(n-base) < len(sb.slots); n++ {
		if *sb.at(n) != (slot{}) {
			bad("ring slot of segment %d, outside the window [%d,%d), is not clear", n, base, top)
		}
	}
	if len(sb.lost) != lost {
		bad("retransmit queue holds %d segments, scoreboard has %d lost", len(sb.lost), lost)
	}
	for i, n := range sb.lost {
		if n < base || n >= top || sb.at(n).st != stLost {
			bad("queued segment %d is not marked lost", n)
		}
		if i > 0 && sb.lost[(i-1)/2] >= n {
			bad("retransmit queue out of heap order at %d", i)
		}
	}
	prev, last := int32(noSeg), time.Duration(-1<<63)
	for n := sb.rtxHead; n != noSeg; n = sb.at(n).next {
		sl := sb.at(n)
		if rtx--; rtx < 0 || n < base || n >= top || sl.st != stRetransInFlight || sl.prev != prev || sl.sentAt < last {
			bad("retransmission list broken at segment %d (state %d, sent %v after %v)", n, sl.st, sl.sentAt, last)
			break
		}
		prev, last = n, sl.sentAt
	}
	if rtx != 0 || sb.rtxTail != prev {
		bad("retransmission list misses %d retransmissions in flight (tail %d, walked to %d)", rtx, sb.rtxTail, prev)
	}
	if int64(sb.lossScan)*mss > s.highestSacked {
		bad("loss sweep pointer %d beyond highestSacked %d", sb.lossScan, s.highestSacked)
	}
	return problems
}
