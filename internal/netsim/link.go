package netsim

import (
	"fmt"
	"time"

	"suss/internal/obs"
)

// RateFunc returns the link's instantaneous transmission rate in bits
// per second at virtual time now. Implementations must return a
// positive value.
type RateFunc func(now time.Duration) float64

// LinkConfig describes one unidirectional link.
type LinkConfig struct {
	// Name appears in traces and error messages.
	Name string
	// Rate is the transmission rate in bits per second. Ignored if
	// RateModel is set.
	Rate float64
	// RateModel, when non-nil, supplies a time-varying rate (wireless
	// links). It overrides Rate.
	RateModel RateFunc
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// Impair, when non-nil, is the link's own impairment pipeline
	// (a last hop's wire loss and jitter), judged on every packet
	// after it leaves the serializer.
	Impair Impairments
	// QueueBytes is the buffer capacity. Zero means a generous
	// default of 1 MiB.
	QueueBytes int
	// Qdisc selects the queue discipline (nil = drop-tail FIFO).
	// netsim.CoDelFactory installs CoDel (RFC 8289).
	Qdisc QdiscFactory
}

// LinkStats summarizes what happened on a link, computed from its
// counter block.
type LinkStats struct {
	EnqueuedPackets   int
	EnqueuedBytes     int64
	DroppedPackets    int // tail drops (congestion)
	DroppedBytes      int64
	ErasedPackets     int // random (wire) losses
	CorruptedPackets  int // impairment drops: corruption
	OutagePackets     int // impairment drops: link outage/flap
	DuplicatedPackets int // extra copies injected by impairment
	DeliveredPackets  int
	DeliveredBytes    int64
	MaxQueueBytes     int
}

// Link is a unidirectional FIFO pipe: a drop-tail queue, a serializer
// running at the (possibly time-varying) link rate, an optional
// impairment pipeline and a fixed propagation delay. After the delay
// the packet is handed to the destination node. Arrival times are
// clamped to be non-decreasing, which matches a FIFO pipe; only an
// impairment stage's out-of-band verdict reorders.
type Link struct {
	sim *Simulator
	cfg LinkConfig
	dst Node

	qdisc Qdisc
	busy  bool

	lastArrival time.Duration // for in-order clamping
	line        pktFIFO       // in-band packets in propagation; one timer, the head's
	c           obs.LinkCounters

	// rec, when non-nil, is the attached flight recorder for this
	// link's drop and duplicate events.
	rec *obs.LinkRecorder

	// impair is judged on every packet after serialization:
	// cfg.Impair's stages, then attached ones. A link with neither
	// pays a single nil check (pinned by an equality test).
	impair Impairments
}

// AttachRecorder installs a flight recorder for this link's events.
// Pass nil to detach.
func (l *Link) AttachRecorder(r *obs.LinkRecorder) { l.rec = r }

// AttachImpairments appends stages to this link's pipeline, after its
// configured ones, in a slice the link owns: cfg.Impair is never
// written, and a reset restores the configured stages alone.
func (l *Link) AttachImpairments(stages ...ImpairStage) {
	l.impair = append(l.impair[:len(l.impair):len(l.impair)], stages...)
}

// NewLink creates a link feeding dst. The configuration is validated:
// a non-positive fixed rate panics, since it would stall the queue
// silently.
func NewLink(sim *Simulator, cfg LinkConfig, dst Node) *Link {
	l := &Link{sim: sim, dst: dst}
	l.reset(cfg)
	return l
}

// reset puts l in the state NewLink(l.sim, cfg, l.dst) builds, whatever
// its last run left behind: queued packets and packets on the line are
// forgotten (the engine's Reset reclaims them), the counters are zero,
// the recorder is detached and only cfg.Impair's stages remain. A
// drop-tail queue is emptied in place; any other discipline is rebuilt
// from cfg.Qdisc.
func (l *Link) reset(cfg LinkConfig) {
	if cfg.RateModel == nil && cfg.Rate <= 0 {
		panic(fmt.Sprintf("netsim: link %q has non-positive rate %v", cfg.Name, cfg.Rate))
	}
	if cfg.QueueBytes <= 0 {
		cfg.QueueBytes = 1 << 20
	}
	q := l.qdisc
	if d, ok := q.(*dropTail); ok && cfg.Qdisc == nil {
		*d = dropTail{limit: cfg.QueueBytes}
	} else if cfg.Qdisc != nil {
		q = cfg.Qdisc(cfg.QueueBytes)
	} else {
		q = NewDropTail(cfg.QueueBytes)
	}
	*l = Link{sim: l.sim, cfg: cfg, dst: l.dst, qdisc: q, impair: cfg.Impair}
}

// Name returns the configured link name.
func (l *Link) Name() string { return l.cfg.Name }

// Counters returns the link's counter block, counted on every run.
func (l *Link) Counters() *obs.LinkCounters { return &l.c }

// Stats returns the link's summary, computed from its counter block.
func (l *Link) Stats() LinkStats {
	c := &l.c
	return LinkStats{
		EnqueuedPackets:   int(c.EnqueuedPkts),
		EnqueuedBytes:     c.EnqueuedBytes,
		DroppedPackets:    int(c.TailDropPkts + c.AQMDropPkts),
		DroppedBytes:      c.TailDropBytes + c.AQMDropBytes,
		ErasedPackets:     int(c.ErasedPkts),
		CorruptedPackets:  int(c.CorruptPkts),
		OutagePackets:     int(c.OutagePkts),
		DuplicatedPackets: int(c.DupPkts),
		DeliveredPackets:  int(c.DeliveredPkts),
		DeliveredBytes:    c.DeliveredBytes,
		MaxQueueBytes:     int(c.DepthHighWaterBytes),
	}
}

// QueueBytes returns the bytes currently buffered.
func (l *Link) QueueBytes() int { return l.qdisc.Bytes() }

// QueueLimit returns the configured buffer capacity in bytes.
func (l *Link) QueueLimit() int { return l.cfg.QueueBytes }

// RateAt returns the instantaneous rate in bits/sec at time now: the
// rate model's, or the fixed rate.
func (l *Link) RateAt(now time.Duration) float64 {
	if m := l.cfg.RateModel; m != nil {
		return m(now)
	}
	return l.cfg.Rate
}

// Enqueue offers a packet to the link, transferring ownership: the
// link either carries the packet to the destination node or releases
// it on a drop. If the queue discipline refuses it (tail drop) the
// packet is lost.
func (l *Link) Enqueue(pkt *Packet) {
	debugCheckLive(pkt, "link enqueue")
	if !l.qdisc.Enqueue(l.sim.Now(), pkt) {
		l.drop(pkt, obs.DropTail)
		return
	}
	l.c.EnqueuedPkts++
	l.c.EnqueuedBytes += int64(pkt.Size)
	if b := int64(l.qdisc.Bytes()); b > l.c.DepthHighWaterBytes {
		l.c.DepthHighWaterBytes = b
	}
	if !l.busy {
		l.startTransmit()
	}
}

// linkFinishTransmitEv and linkDeliverEv are the link's per-packet
// events as capture-free EventFuncs: scheduling them stores (link,
// packet) in the timer slot instead of building a capturing closure,
// so the serialize→propagate→deliver pipeline allocates nothing.
// linkDeliverEv carries only out-of-band deliveries; the line's are
// linkLineEv's.
func linkFinishTransmitEv(ctx, arg any) { ctx.(*Link).finishTransmit(arg.(*Packet)) }
func linkDeliverEv(ctx, arg any)        { ctx.(*Link).deliver(arg.(*Packet)) }

// linkLineEv delivers the head of a link's line after arming the next
// head at the key that packet reserved when it propagated.
func linkLineEv(ctx, _ any) {
	l := ctx.(*Link)
	pkt := l.line.pop()
	if next := l.line.head; next != nil {
		l.sim.armSlot(next.at, next.armSeq, linkLineEv, l, nil)
	}
	l.deliver(pkt)
}

func (l *Link) startTransmit() {
	pkt, dropped := l.qdisc.Dequeue(l.sim.Now())
	for _, d := range dropped {
		// AQM (CoDel) drops are congestion signals like tail drops.
		l.drop(d, obs.DropAQM)
	}
	if pkt == nil {
		l.busy = false
		return
	}
	l.busy = true
	rate := l.RateAt(l.sim.Now())
	if rate <= 0 {
		panic(fmt.Sprintf("netsim: link %q rate model returned %v", l.cfg.Name, rate))
	}
	txTime := time.Duration(float64(pkt.Size*8) / rate * float64(time.Second))
	l.sim.ScheduleEvent(txTime, linkFinishTransmitEv, l, pkt)
}

// finishTransmit runs when pkt leaves the serializer: the impairment
// pipeline, if the link has one, judges it, and it propagates as the
// verdict says.
func (l *Link) finishTransmit(pkt *Packet) {
	// Start serializing the next packet immediately: the serializer is
	// busy back-to-back while the queue is non-empty.
	l.startTransmit()

	if l.impair == nil {
		l.propagate(pkt, 0, false)
		return
	}
	v := l.impair.Judge(l.sim.Now(), pkt)
	if v.Drop {
		l.drop(pkt, v.Cause)
		return
	}
	var dup *Packet
	if v.Duplicate {
		// Copy before handing the original on: once propagated the
		// original may be delivered and released within this event.
		dup = l.sim.Pool().Get()
		dup.CopyFrom(pkt)
		l.c.CountDup(pkt.Size, pkt.Kind == Data)
		l.rec.Duplicated(l.sim.Now(), int32(pkt.Flow), pkt.Seq, pkt.Size)
	}
	l.propagate(pkt, v.ExtraDelay, v.OutOfBand)
	if dup != nil {
		// Duplicates are always out-of-band: the copy must not drag
		// the FIFO watermark forward for later packets.
		l.propagate(dup, v.ExtraDelay+v.DupExtraDelay, true)
	}
}

// propagate schedules a packet's delivery after the configured
// propagation delay and extra impairment delay. An outOfBand
// delivery skips the FIFO arrival clamp and does not advance the clamp
// watermark, so genuinely reordered copies can land behind successors
// without delaying them.
//
// A clamped arrival is never earlier than the one before it, so an
// in-band packet joins the tail of the line: a long fat pipe holds a
// BDP of packets but costs the scheduler one pending event. The packet
// takes its arm sequence now, as a timer armed here would, and keeps
// it for when it heads the line. Out-of-band deliveries are not FIFO
// and keep an event of their own.
func (l *Link) propagate(pkt *Packet, extra time.Duration, outOfBand bool) {
	delay := l.cfg.Delay + extra
	if delay < 0 {
		// A negative RTT step can outweigh the base delay; arrivals
		// never precede departure.
		delay = 0
	}
	arrival := l.sim.Now() + delay
	if outOfBand {
		l.sim.ScheduleEventAt(arrival, linkDeliverEv, l, pkt)
		return
	}
	if arrival < l.lastArrival {
		arrival = l.lastArrival
	}
	l.lastArrival = arrival
	s := l.sim
	pkt.at, pkt.armSeq = arrival, s.seq
	s.seq++
	if l.line.head == nil {
		s.armSlot(arrival, pkt.armSeq, linkLineEv, l, nil)
	}
	l.line.push(pkt)
}

// drop loses a packet to cause, counting it and releasing it.
func (l *Link) drop(pkt *Packet, cause obs.DropCause) {
	l.c.CountDrop(cause, pkt.Size, pkt.Kind == Data)
	l.rec.Dropped(l.sim.Now(), cause, int32(pkt.Flow), pkt.Seq, pkt.Size)
	pkt.Release()
}

// deliver hands a fully-propagated packet to the destination node,
// transferring ownership (routers forward it, endpoints release it).
func (l *Link) deliver(pkt *Packet) {
	l.c.DeliveredPkts++
	l.c.DeliveredBytes += int64(pkt.Size)
	l.dst.Deliver(pkt)
}
