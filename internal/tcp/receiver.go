package tcp

import (
	"math/rand"
	"time"

	"suss/internal/netsim"
	"suss/internal/obs"
	"suss/internal/wire"
)

// maxSack is the number of SACK blocks an ACK carries: what fits
// beside a timestamp option (RFC 2018).
const maxSack = 3

// maxRecentSacks is how many recently-extended ranges the receiver
// remembers for RFC 2018 SACK block selection.
const maxRecentSacks = 8

// Receiver reassembles the byte stream and generates cumulative ACKs
// with up to three SACK ranges, acknowledging every packet (or every
// n-th with a delayed-ACK timer) and immediately on out-of-order data.
//
// The receive path is allocation-free in steady state: ACKs encode
// from a per-receiver scratch segment with SACK blocks chosen into a
// fixed array, the range set is binary-searched and edited in place,
// and SACK recency lives in a fixed array.
type Receiver struct {
	conn wire.Conn
	sim  *netsim.Simulator // conn.Clock(), cached
	cfg  Config
	flow netsim.FlowID

	// ackSeg is the scratch segment sendAck encodes from.
	ackSeg wire.Segment
	// seqNear anchors the 32→64-bit unwrap of arriving sequence
	// numbers: the highest unwrapped sequence seen, which every
	// in-window wire value sits within ±2³¹ of.
	seqNear int64

	ranges rangeSet // received byte ranges
	// fresh is merge's scratch for the newly covered parts.
	fresh []sackRange
	// recent remembers the ranges most recently extended, newest
	// first, to fill SACK blocks the way RFC 2018 recommends.
	recent  [maxRecentSacks]sackRange
	nRecent int

	unacked  int // in-order packets since last ACK (for AckEvery)
	delack   netsim.Timer
	received int64 // total payload bytes accepted (with duplicates removed)

	// OnComplete fires once when the contiguous prefix reaches size,
	// after CompletedAt is set. It is never nil on a new receiver (a
	// no-op), so an owner can wrap whatever is installed.
	OnComplete  func(now time.Duration)
	size        int64
	completed   bool
	completedAt time.Duration

	// OnData, when non-nil, observes every decoded data segment
	// (tracing). seg is the conn's scratch storage, reused for the next
	// frame: observers must copy what they keep, never retain seg.
	OnData func(now time.Duration, seg *wire.Segment)

	// c is the flow's counter block: the receiver counts its ground
	// truth of duplicate payload there, the complement of the sender's
	// spurious-retransmit detection. rec, when non-nil, receives the
	// receiver's events.
	c   *obs.FlowCounters
	rec *obs.FlowRecorder

	// SACK-reneging fault injection (EnableReneging): every
	// renegeEvery, with probability renegeProb, discard all
	// out-of-order data above the cumulative point — the RFC 2018
	// memory-pressure behavior a hardened sender must survive.
	renegeEvery time.Duration
	renegeProb  float64
	renegeRNG   *rand.Rand
	renegeTimer netsim.Timer
}

// AttachRecorder installs a flight recorder for this receiver's
// events. Pass nil to detach.
func (r *Receiver) AttachRecorder(rec *obs.FlowRecorder) { r.rec = rec }

// NewReceiver creates a receiver for one flow terminating at conn,
// with a counter block of its own. size is the expected stream length
// for completion detection (0 disables it). The caller must install
// Handle as the conn's handler; a Flow wires its own endpoints.
func NewReceiver(conn wire.Conn, cfg Config, flow netsim.FlowID, size int64) *Receiver {
	r := new(struct {
		Receiver
		c obs.FlowCounters
	})
	r.reset(conn, cfg, flow, size, &r.c)
	return &r.Receiver
}

// reset makes r exactly what NewReceiver returns, counting into c and
// keeping only the reassembly set and its scratch slice (see
// Sender.reset).
func (r *Receiver) reset(conn wire.Conn, cfg Config, flow netsim.FlowID, size int64, c *obs.FlowCounters) {
	r.ranges.reset()
	*r = Receiver{
		conn:       conn,
		sim:        conn.Clock(),
		cfg:        cfg,
		flow:       flow,
		size:       size,
		ranges:     r.ranges,
		fresh:      r.fresh[:0],
		OnComplete: noComplete,
		c:          c,
	}
}

func noComplete(time.Duration) {}

// CompletedAt returns when the contiguous prefix reached the expected
// size: the arrival of the last byte. Zero until then.
func (r *Receiver) CompletedAt() time.Duration { return r.completedAt }

// CumAck returns the current cumulative acknowledgment point.
func (r *Receiver) CumAck() int64 {
	if v := r.ranges.view(); len(v) > 0 && v[0].Start == 0 {
		return v[0].End
	}
	return 0
}

// Received returns the distinct payload bytes accepted so far.
func (r *Receiver) Received() int64 { return r.received }

// recvDelAckEv fires the delayed ACK without a per-arm closure. A
// delayed ACK carries no timestamp echo (the trigger's departure time
// is stale by up to the delack timeout; echoing it would corrupt the
// sender's RTT estimate).
func recvDelAckEv(ctx, _ any) { ctx.(*Receiver).sendAck(false, 0) }

// recvRenegeEv is the reneging fault-injection tick.
func recvRenegeEv(ctx, _ any) { ctx.(*Receiver).renegeTick() }

// EnableReneging arms periodic SACK reneging: every interval, with the
// given probability, the receiver throws away all out-of-order data it
// previously SACKed (keeping only the contiguous prefix), as RFC 2018
// permits under memory pressure. Deterministic given rng; prob 1.0
// renegs on every tick.
func (r *Receiver) EnableReneging(interval time.Duration, prob float64, rng *rand.Rand) {
	if interval <= 0 {
		return
	}
	r.renegeEvery = interval
	r.renegeProb = prob
	r.renegeRNG = rng
	r.renegeTimer.Stop()
	r.renegeTimer = r.sim.ScheduleEvent(interval, recvRenegeEv, r, nil)
}

func (r *Receiver) renegeTick() {
	if r.completed {
		// Stop re-arming so the simulation can drain.
		return
	}
	if r.renegeProb >= 1 || r.renegeRNG.Float64() < r.renegeProb {
		r.renege()
	}
	r.renegeTimer = r.sim.ScheduleEvent(r.renegeEvery, recvRenegeEv, r, nil)
}

// renege discards every received range above the contiguous prefix.
func (r *Receiver) renege() {
	v := r.ranges.view()
	keep := 0
	if len(v) > 0 && v[0].Start == 0 {
		keep = 1
	}
	var discarded int64
	for _, g := range v[keep:] {
		discarded += g.End - g.Start
	}
	if discarded == 0 {
		return
	}
	r.ranges.truncate(keep)
	r.received -= discarded
	// Forget the recency list too: those ranges no longer exist, and
	// re-announcing them in SACK blocks would be lying twice over.
	r.nRecent = 0
	r.c.RcvRenegeEvents++
	r.c.RcvRenegedBytes += discarded
	if o := r.rec; o != nil {
		o.Record(r.sim.Now(), obs.EvSackReneged, r.CumAck(), discarded, 0, 0)
	}
}

// Handle processes one decoded data segment addressed to this flow.
// It is the flow's wire.Handler: seg is the conn's scratch segment,
// valid only for the duration of the call, and wireLen is the frame's
// wire length for byte accounting. The 32-bit sequence number
// unwraps against the receiver's high watermark here, at the
// boundary; a value that unwraps below stream start is dropped as
// garbage.
func (r *Receiver) Handle(seg *wire.Segment, wireLen int) {
	if !seg.IsData() {
		return
	}
	r.c.WireFramesIn++
	r.c.WireBytesIn += int64(wireLen)
	if r.OnData != nil {
		r.OnData(r.sim.Now(), seg)
	}
	seq := wire.Unwrap32(r.seqNear, seg.Seq)
	if seq < 0 {
		return
	}
	if seq > r.seqNear {
		r.seqNear = seq
	}
	segLen := int64(seg.PayloadLen)
	prevCum := r.CumAck()
	added := r.merge(seq, seq+segLen)
	r.received += added
	newCum := r.CumAck()
	r.c.RcvSegs++
	if added < segLen {
		// Part of the payload was already held: a retransmission (or a
		// spuriously resent segment) duplicated data.
		r.c.RcvDupSegs++
		r.c.RcvDupBytes += segLen - added
	}

	if !r.completed && r.size > 0 && newCum >= r.size {
		r.completed = true
		r.completedAt = r.sim.Now()
		if r.OnComplete != nil {
			r.OnComplete(r.completedAt)
		}
	}

	outOfOrder := newCum == prevCum || len(r.ranges.view()) > 1
	r.unacked++
	if outOfOrder || r.unacked >= r.cfg.AckEvery {
		r.sendAck(seg.HasTS, seg.TSVal)
		return
	}
	// Withhold the ACK but bound the delay.
	if !r.delack.Active() {
		r.delack = r.sim.ScheduleEvent(r.cfg.DelAckTimeout, recvDelAckEv, r, nil)
	}
}

// sendAck emits a cumulative ACK with SACK blocks. When echo is set
// the ACK carries a timestamp option echoing tsecr (the triggering
// segment's TSVal); option absence is how "no echo" travels the wire.
func (r *Receiver) sendAck(echo bool, tsecr uint32) {
	r.unacked = 0
	r.delack.Stop()
	cum := r.CumAck()
	a := &r.ackSeg
	*a = wire.Segment{
		SrcPort: uint16(r.flow),
		DstPort: uint16(r.flow),
		Ack:     uint32(cum),
		Flags:   wire.FlagACK,
		Window:  65535,
	}
	r.fillSackBlocks(a, cum)
	if echo {
		a.HasTS = true
		a.TSVal = wire.WrapTS(r.sim.Now())
		a.TSEcr = tsecr
	}
	n := r.conn.Send(a, wire.SendMeta{WireSize: r.cfg.AckBytes})
	r.c.WireFramesOut++
	r.c.WireBytesOut += int64(n)
}

// fillSackBlocks writes up to maxSack ranges above the
// cumulative ACK into the segment's SACK blocks, most recently
// changed first. The cap matches what fits beside a timestamp option
// (RFC 2018), and is held even on no-echo ACKs so the sender's view
// does not depend on whether an ACK happened to carry a timestamp.
func (r *Receiver) fillSackBlocks(a *wire.Segment, cum int64) {
	var chosen [maxSack]sackRange
	n := 0
	for i := 0; i < r.nRecent && n < maxSack; i++ {
		s := r.recent[i]
		if s.End <= cum {
			continue
		}
		// Re-resolve against current ranges (merges may have grown it).
		cur, ok := r.ranges.containing(s.Start)
		if !ok || cur.End <= cum {
			continue
		}
		dup := false
		for _, o := range chosen[:n] {
			if o == cur {
				dup = true
				break
			}
		}
		if !dup {
			chosen[n] = cur
			n++
		}
	}
	for _, c := range chosen[:n] {
		a.AddSack(wire.SackBlock{Start: uint32(c.Start), End: uint32(c.End)})
	}
}

// noteRecent records [start,end) as the most recently extended range
// for SACK block selection (in-place shift; no allocation).
func (r *Receiver) noteRecent(start, end int64) {
	copy(r.recent[1:], r.recent[:maxRecentSacks-1])
	r.recent[0] = sackRange{Start: start, End: end}
	if r.nRecent < maxRecentSacks {
		r.nRecent++
	}
}

// merge inserts [start,end) into the received set and returns the
// number of bytes that were new.
func (r *Receiver) merge(start, end int64) int64 {
	if end <= start {
		return 0
	}
	r.noteRecent(start, end)
	r.fresh = r.ranges.add(sackRange{Start: start, End: end}, r.fresh[:0])
	var added int64
	for _, f := range r.fresh {
		added += f.End - f.Start
	}
	return added
}
