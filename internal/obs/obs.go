// Package obs is the stack's counters and its flight recorder, the
// userspace equivalent of the kernel's tcp_info counts and the
// ftrace-style tracepoints the paper's evaluation leans on to explain
// *why* SUSS wins or loses on a path.
//
// Design constraints, in order:
//
//   - Counters are always on. A tcp flow owns one FlowCounters, which
//     its sender, receiver and congestion controller count into, and a
//     netsim link one LinkCounters; SenderStats and LinkStats are
//     computed from them on every run, observed or not.
//   - Events are opt-in. Only an observed run attaches a recorder, which
//     writes plain-scalar records into a fixed-size ring that overwrites
//     its oldest entry when full, and never allocates. An event site is
//     guarded by a nil recorder check where its arguments cost
//     anything, so an unobserved run pays one branch per site.
//   - Observers copy, never retain. Events carry scalars copied out of
//     pool-owned packets at emission time; a recorder never holds a
//     *netsim.Packet. This package deliberately imports nothing from
//     the simulator, so any layer can emit into it.
//
// A Registry bundles one observed simulation's event ring with copies
// of its counter blocks taken when the run is over; exporters (JSONL,
// CSV, a human-readable timeline) live in export.go.
package obs

import (
	"strconv"
	"time"
)

// EventKind enumerates what the flight recorder can witness.
type EventKind uint8

const (
	// EvNone is the zero value; it never appears in a recorded ring.
	EvNone EventKind = iota
	// EvSegSent is a fresh data segment transmission.
	EvSegSent
	// EvSegRetrans is a retransmission. Aux carries the RetransCause.
	EvSegRetrans
	// EvAckRecvd is a processed cumulative ACK. Seq is the cumulative
	// ack point, Len the newly acknowledged bytes, Aux the bytes left
	// in flight.
	EvAckRecvd
	// EvSackRecvd is an ACK carrying selective acknowledgments. Aux is
	// the number of SACK ranges on the wire.
	EvSackRecvd
	// EvRTOFired is a retransmission-timeout expiry. Aux is the running
	// RTO count.
	EvRTOFired
	// EvTLPFired is a tail-loss-probe transmission. Seq is the probed
	// segment.
	EvTLPFired
	// EvLossDetected is a segment newly marked lost by fast detection
	// (RFC 6675/RACK), not by RTO. Seq/Len identify the segment.
	EvLossDetected
	// EvCwndChanged reports a congestion-window change observed after a
	// controller callback. Aux is the new cwnd in bytes, Aux2 the old.
	EvCwndChanged
	// EvSussRoundStart is a SUSS slow-start round boundary, recorded
	// only while SUSS runs (not after its exit, a loss or a timeout).
	// Aux is the paper's round number, Aux2 the cwnd in bytes at the
	// boundary.
	EvSussRoundStart
	// EvSussBoost is an accelerated SUSS round (G > 2) or a BBR
	// SUSS-boosted STARTUP round. Aux is the growth factor G (or the
	// BBR gain multiplier ×100), Aux2 the red bytes to be paced.
	EvSussBoost
	// EvSussExit is SUSS disabling itself (slow start over or aborted).
	// Aux is 1 when pacing was aborted mid-round.
	EvSussExit
	// EvHyStartExit is a slow-start exit decided by HyStart, modified
	// HyStart or HyStart++. Aux carries the HyStartReason.
	EvHyStartExit
	// EvQdiscDrop is a packet lost at a link. Aux carries the
	// DropCause, Aux2 the wire size; Seq is the packet's sequence.
	EvQdiscDrop
	// EvLinkDup is a duplicate packet injected by an impairment stage.
	// Seq is the duplicated packet's sequence, Aux2 its wire size.
	EvLinkDup
	// EvRTOUndone is an Eifel/F-RTO undo: the last timeout was proven
	// spurious and its congestion response reverted. Seq is sndUna, Aux
	// the running spurious-RTO count, Aux2 the restored cwnd in bytes.
	EvRTOUndone
	// EvSackReneged is the receiver discarding out-of-order data it had
	// SACKed (RFC 2018 permits this). Seq is the cumulative ack point,
	// Len the bytes thrown away.
	EvSackReneged
	// EvRenegDetected is the sender noticing the reneging (cumulative
	// ACK stalled on a SACKed segment) and discarding its scoreboard's
	// SACK state. Seq is sndUna, Aux the highest sequence that had been
	// SACKed.
	EvRenegDetected
	// EvFlowAbort is the sender giving the flow up with an error (the
	// consecutive-RTO cap). Seq is sndUna, Aux the total RTO count.
	EvFlowAbort

	numEventKinds
)

var eventKindNames = [numEventKinds]string{
	EvNone:           "None",
	EvSegSent:        "SegSent",
	EvSegRetrans:     "SegRetrans",
	EvAckRecvd:       "AckRecvd",
	EvSackRecvd:      "SackRecvd",
	EvRTOFired:       "RTOFired",
	EvTLPFired:       "TLPFired",
	EvLossDetected:   "LossDetected",
	EvCwndChanged:    "CwndChanged",
	EvSussRoundStart: "SussRoundStart",
	EvSussBoost:      "SussBoost",
	EvSussExit:       "SussExit",
	EvHyStartExit:    "HyStartExit",
	EvQdiscDrop:      "QdiscDrop",
	EvLinkDup:        "LinkDup",
	EvRTOUndone:      "RTOUndone",
	EvSackReneged:    "SackReneged",
	EvRenegDetected:  "RenegDetected",
	EvFlowAbort:      "FlowAbort",
}

// String implements fmt.Stringer.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "Unknown"
}

// RetransCause partitions retransmissions by what queued the segment
// for resend (EvSegRetrans Aux values).
type RetransCause int64

const (
	// CauseFast is RFC 6675/RACK fast loss detection.
	CauseFast RetransCause = iota
	// CauseRTO is the go-back-N rebuild after a retransmission timeout.
	CauseRTO
	// CauseTLP is a tail loss probe.
	CauseTLP
	// CauseReneg is the RFC 2018 repair after SACK reneging: the
	// receiver discarded data it had selectively acknowledged, so the
	// sender must retransmit it despite the earlier SACK.
	CauseReneg
)

// String implements fmt.Stringer.
func (c RetransCause) String() string {
	switch c {
	case CauseFast:
		return "fast"
	case CauseRTO:
		return "rto"
	case CauseTLP:
		return "tlp"
	case CauseReneg:
		return "reneg"
	default:
		return "unknown"
	}
}

// DropCause distinguishes why a link shed a packet (EvQdiscDrop Aux
// values).
type DropCause int64

const (
	// DropTail is a queue-full refusal on enqueue.
	DropTail DropCause = iota
	// DropAQM is an active-queue-management (CoDel) drop at dequeue.
	DropAQM
	// DropErasure is random wire loss, not congestion.
	DropErasure
	// DropCorrupt is a packet damaged in transit and discarded by the
	// next hop's checksum — modeled as an erasure with its own cause so
	// ledgers can tell corruption from plain wire loss.
	DropCorrupt
	// DropOutage is a packet lost to a link being down (handover,
	// flap, scheduled maintenance window).
	DropOutage
)

// String implements fmt.Stringer.
func (c DropCause) String() string {
	switch c {
	case DropTail:
		return "tail"
	case DropAQM:
		return "aqm"
	case DropErasure:
		return "erasure"
	case DropCorrupt:
		return "corrupt"
	case DropOutage:
		return "outage"
	default:
		return "unknown"
	}
}

// HyStartReason says which detector ended slow start (EvHyStartExit
// Aux values).
type HyStartReason int64

const (
	// ExitTrain is the ACK-train length condition.
	ExitTrain HyStartReason = iota
	// ExitDelay is the RTT-increase condition.
	ExitDelay
	// ExitCap is SUSS's postponed growth-cap stop (Fig. 8 cap branch).
	ExitCap
	// ExitCSS is HyStart++ confirming its conservative phase.
	ExitCSS
)

// String implements fmt.Stringer.
func (r HyStartReason) String() string {
	switch r {
	case ExitTrain:
		return "ack-train"
	case ExitDelay:
		return "delay"
	case ExitCap:
		return "growth-cap"
	case ExitCSS:
		return "css"
	default:
		return "unknown"
	}
}

// Event is one flight-recorder record: plain scalars only, copied at
// emission time, so recording never touches pool-owned memory. The
// meaning of Seq/Len/Aux/Aux2 is per-kind (see the EventKind docs).
type Event struct {
	T    time.Duration
	Kind EventKind
	Flow int32 // 0 for link-level events with no flow attribution
	Seq  int64
	Len  int64
	Aux  int64
	Aux2 int64
}

// Ring is a fixed-capacity event log that overwrites its oldest entry
// when full — the flight-recorder policy: recent history is always
// complete, ancient history is sacrificed, and recording cost stays
// O(1) with zero allocations after construction.
type Ring struct {
	buf       []Event
	head      int // index of the oldest retained event
	n         int
	overwrote uint64
}

// DefaultRingCap is the event capacity used when a caller passes a
// non-positive size: 1 MiB of 64-byte records, plenty for several
// seconds of per-ACK history on a fast flow.
const DefaultRingCap = 16384

// NewRing allocates a ring with the given capacity (<= 0 picks
// DefaultRingCap).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultRingCap
	}
	return &Ring{buf: make([]Event, capacity)}
}

// Record appends an event, overwriting the oldest if the ring is full.
// It is safe on a nil ring (no-op), so recorders can share an optional
// ring without re-checking.
func (r *Ring) Record(ev Event) {
	if r == nil {
		return
	}
	if r.n < len(r.buf) {
		r.buf[(r.head+r.n)%len(r.buf)] = ev
		r.n++
		return
	}
	r.buf[r.head] = ev
	r.head = (r.head + 1) % len(r.buf)
	r.overwrote++
}

// Len returns the number of retained events.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	return r.n
}

// Overwritten returns how many events were evicted to make room.
func (r *Ring) Overwritten() uint64 {
	if r == nil {
		return 0
	}
	return r.overwrote
}

// Do calls fn for every retained event, oldest first. fn returning
// false stops the walk.
func (r *Ring) Do(fn func(Event) bool) {
	if r == nil {
		return
	}
	for i := 0; i < r.n; i++ {
		if !fn(r.buf[(r.head+i)%len(r.buf)]) {
			return
		}
	}
}

// Snapshot appends the retained events, oldest first, to dst and
// returns it (pass nil for a fresh slice).
func (r *Ring) Snapshot(dst []Event) []Event {
	r.Do(func(ev Event) bool {
		dst = append(dst, ev)
		return true
	})
	return dst
}

// FlowCounters aggregates one flow's transport activity. All fields
// are plain int64s incremented inline — reading them mid-simulation is
// always safe (the simulator is single-threaded). WriteCounters and
// MakeLedger read all but LossEvents.
type FlowCounters struct {
	// Sender side.
	SegsSent     int64 // fresh transmissions
	SegsRetrans  int64 // retransmissions, any cause
	RetransFast  int64 // queued by fast loss detection
	RetransRTO   int64 // queued by the post-RTO go-back-N rebuild
	RetransTLP   int64 // tail loss probes
	RetransReneg int64 // queued by SACK-reneging repair
	AcksSeen     int64 // ACKs processed
	SackRanges   int64 // SACK ranges processed off the wire
	RTOFires     int64
	TLPFires     int64
	LossDetected int64 // segments newly marked lost by fast detection
	LossEvents   int64 // fast-recovery episodes entered
	// SpuriousRetrans counts loss markings contradicted by a later ACK
	// of the original transmission: the segment was cumulatively or
	// selectively acknowledged while still waiting in (or after leaving)
	// the retransmit queue, so the retransmission was (or would have
	// been) unnecessary.
	SpuriousRetrans int64
	// SpuriousRTOUndos counts retransmission timeouts later proven
	// spurious by Eifel/F-RTO detection and undone.
	SpuriousRTOUndos int64
	// SackRenegings counts sender-side reneging detections (scoreboard
	// SACK state discarded).
	SackRenegings int64
	// FlowAborts counts terminal give-ups (consecutive-RTO cap).
	FlowAborts  int64
	CwndChanges int64

	// Receiver side.
	RcvSegs     int64 // data segments accepted
	RcvDupSegs  int64 // arrivals contributing no new bytes (dup payload)
	RcvDupBytes int64 // payload bytes already held when they re-arrived
	// RcvRenegeEvents / RcvRenegedBytes are the receiver's ground truth
	// of its own misbehaviour: out-of-order data discarded after being
	// SACKed (chaos receiver mode only).
	RcvRenegeEvents int64
	RcvRenegedBytes int64

	// Controller side. SussRounds counts EvSussRoundStart: the rounds
	// SUSS ran, not every round of the connection.
	SussRounds   int64
	SussBoosts   int64
	SussExits    int64
	HyStartExits int64

	// Wire layer: frames and encoded bytes through the endpoint's
	// wire.Conn. Byte counts are real framed lengths (IP total length),
	// which differ from the modeled Size accounting above — the pair
	// exposes framing overhead per flow on any backend.
	WireFramesOut int64
	WireBytesOut  int64
	WireFramesIn  int64
	WireBytesIn   int64
}

// LinkCounters aggregates one link's queue activity. WriteCounters and
// MakeLedger read all but the Delivered pair.
type LinkCounters struct {
	EnqueuedPkts  int64
	EnqueuedBytes int64
	TailDropPkts  int64
	TailDropBytes int64
	AQMDropPkts   int64
	AQMDropBytes  int64
	ErasedPkts    int64
	ErasedBytes   int64
	CorruptPkts   int64
	CorruptBytes  int64
	OutagePkts    int64
	OutageBytes   int64
	// DupPkts / DupBytes count duplicate packets injected by an
	// impairment stage; DupDataPkts the data-kind subset (the only ones
	// a receiver can observe as duplicate payload).
	DupPkts     int64
	DupBytes    int64
	DupDataPkts int64
	// DataDropPkts counts congestion drops (tail + AQM) of data-kind
	// packets only — the quantity a sender's loss detection can ever
	// observe, and the left side of the loss ledger.
	DataDropPkts int64
	// DepthHighWaterBytes is the deepest queue occupancy seen.
	DepthHighWaterBytes int64
	// DeliveredPkts / DeliveredBytes count packets handed to the far end.
	DeliveredPkts  int64
	DeliveredBytes int64
}

// CountDrop counts a shed packet by cause. data reports whether the
// packet carried payload (vs an ACK).
func (c *LinkCounters) CountDrop(cause DropCause, size int, data bool) {
	switch cause {
	case DropTail:
		c.TailDropPkts++
		c.TailDropBytes += int64(size)
	case DropAQM:
		c.AQMDropPkts++
		c.AQMDropBytes += int64(size)
	case DropErasure:
		c.ErasedPkts++
		c.ErasedBytes += int64(size)
	case DropCorrupt:
		c.CorruptPkts++
		c.CorruptBytes += int64(size)
	case DropOutage:
		c.OutagePkts++
		c.OutageBytes += int64(size)
	}
	// Only congestion drops are visible to a sender's loss-vs-queue
	// accounting; erasure-family causes (wire loss, corruption, outage)
	// are path loss, tallied on the ledger's PathErasures side.
	if data && (cause == DropTail || cause == DropAQM) {
		c.DataDropPkts++
	}
}

// CountDup counts a duplicate packet injected by an impairment stage.
func (c *LinkCounters) CountDup(size int, data bool) {
	c.DupPkts++
	c.DupBytes += int64(size)
	if data {
		c.DupDataPkts++
	}
}

// CountersOf returns the counter block of the flow a congestion
// controller's environment (a tcp.Sender) drives, or a new block for
// an environment that keeps none, such as a test's stand-in.
func CountersOf(env any) *FlowCounters {
	if k, ok := env.(interface{ Counters() *FlowCounters }); ok {
		return k.Counters()
	}
	return new(FlowCounters)
}

// FlowRecorder is the per-flow handle event sites hold: the registry's
// shared ring, stamped with the flow id, and C, a copy of the flow's
// counters taken after the run. All methods are safe on a nil
// receiver, so call sites may skip their guard when arguments are free
// to compute.
type FlowRecorder struct {
	Flow int32
	C    FlowCounters
	ring *Ring
}

// Record writes one event stamped with the recorder's flow id.
func (f *FlowRecorder) Record(t time.Duration, kind EventKind, seq, length, aux, aux2 int64) {
	if f == nil {
		return
	}
	f.ring.Record(Event{T: t, Kind: kind, Flow: f.Flow, Seq: seq, Len: length, Aux: aux, Aux2: aux2})
}

// LinkRecorder is the per-link handle: the shared ring for drop and
// duplicate events, and, like FlowRecorder.C, a copy of the link's
// counter block taken after the run.
type LinkRecorder struct {
	Name string
	C    LinkCounters
	ring *Ring
}

// Dropped records an EvQdiscDrop event for a shed packet.
func (l *LinkRecorder) Dropped(t time.Duration, cause DropCause, flow int32, seq int64, size int) {
	if l == nil {
		return
	}
	l.ring.Record(Event{T: t, Kind: EvQdiscDrop, Flow: flow, Seq: seq, Aux: int64(cause), Aux2: int64(size)})
}

// Duplicated records an EvLinkDup event for a duplicate packet
// injected by an impairment stage.
func (l *LinkRecorder) Duplicated(t time.Duration, flow int32, seq int64, size int) {
	if l == nil {
		return
	}
	l.ring.Record(Event{T: t, Kind: EvLinkDup, Flow: flow, Seq: seq, Aux2: int64(size)})
}

// Registry bundles one observed simulation's flight recorder: the
// shared event ring and the per-flow / per-link recorders, whose
// counter blocks are filled in when the run is over. It is not safe for
// concurrent use — one Registry per Simulator, like every other
// simulation object.
type Registry struct {
	ring  *Ring
	flows map[int32]*FlowRecorder
	links map[string]*LinkRecorder
	// the recorders in attach order, so exports are deterministic.
	flowList []*FlowRecorder
	linkList []*LinkRecorder
}

// NewRegistry creates a registry whose event ring holds ringCap
// records (<= 0 picks DefaultRingCap).
func NewRegistry(ringCap int) *Registry {
	return &Registry{
		ring:  NewRing(ringCap),
		flows: make(map[int32]*FlowRecorder),
		links: make(map[string]*LinkRecorder),
	}
}

// Events returns the shared ring.
func (g *Registry) Events() *Ring { return g.ring }

// Flow returns (creating on first use) the recorder for a flow id.
// Attachment-time only: hot paths cache the returned pointer.
func (g *Registry) Flow(id int32) *FlowRecorder {
	if f, ok := g.flows[id]; ok {
		return f
	}
	f := &FlowRecorder{Flow: id, ring: g.ring}
	g.flows[id] = f
	g.flowList = append(g.flowList, f)
	return f
}

// Link returns (creating on first use) the recorder for a link name.
func (g *Registry) Link(name string) *LinkRecorder {
	if l, ok := g.links[name]; ok {
		return l
	}
	l := &LinkRecorder{Name: name, ring: g.ring}
	g.links[name] = l
	g.linkList = append(g.linkList, l)
	return l
}

// Flows returns the flow recorders in attach order.
func (g *Registry) Flows() []*FlowRecorder { return g.flowList }

// Links returns the link recorders in attach order.
func (g *Registry) Links() []*LinkRecorder { return g.linkList }

// LossLedger cross-checks the loss bookkeeping of a flow against the
// drops its path's links actually performed — the fig11-style loss
// accounting the evaluation uses to show a verdict is internally
// consistent, not an artifact of one miscounted layer.
type LossLedger struct {
	SegsSent        int64
	SegsRetrans     int64
	RetransFast     int64
	RetransRTO      int64
	RetransTLP      int64
	RetransReneg    int64
	LossDetected    int64
	SpuriousRetrans int64
	RTOFires        int64
	TLPFires        int64
	// SpuriousRTOUndos / SackRenegings / FlowAborts fold the hardening
	// paths into the ledger so sweeps can report them next to the loss
	// columns.
	SpuriousRTOUndos int64
	SackRenegings    int64
	FlowAborts       int64
	// RcvDupSegs is the receiver's ground truth for duplicate payload:
	// arrivals that contributed no new bytes. Bounded by retransmissions
	// plus path-injected duplicates (identity 3).
	RcvDupSegs int64
	// PathDataDrops sums congestion drops of data packets over the
	// links the ledger was built from (the flow's forward path).
	PathDataDrops int64
	// PathErasures sums random wire losses over the same links.
	PathErasures int64
	// PathCorrupt / PathOutage split out the impairment-stage drop
	// causes (modelled as erasures with their own cause for accounting).
	PathCorrupt int64
	PathOutage  int64
	// PathDuplicates counts data packets the path itself duplicated.
	PathDuplicates int64
}

// MakeLedger assembles a ledger from one flow's counters and the
// links of its forward path.
func MakeLedger(f *FlowCounters, links ...*LinkCounters) LossLedger {
	l := LossLedger{
		SegsSent:         f.SegsSent,
		SegsRetrans:      f.SegsRetrans,
		RetransFast:      f.RetransFast,
		RetransRTO:       f.RetransRTO,
		RetransTLP:       f.RetransTLP,
		RetransReneg:     f.RetransReneg,
		LossDetected:     f.LossDetected,
		SpuriousRetrans:  f.SpuriousRetrans,
		RTOFires:         f.RTOFires,
		TLPFires:         f.TLPFires,
		SpuriousRTOUndos: f.SpuriousRTOUndos,
		SackRenegings:    f.SackRenegings,
		FlowAborts:       f.FlowAborts,
		RcvDupSegs:       f.RcvDupSegs,
	}
	for _, lc := range links {
		l.PathDataDrops += lc.DataDropPkts
		l.PathErasures += lc.ErasedPkts
		l.PathCorrupt += lc.CorruptPkts
		l.PathOutage += lc.OutagePkts
		l.PathDuplicates += lc.DupDataPkts
	}
	return l
}

// Add accumulates another ledger (sweep aggregation).
func (l *LossLedger) Add(o LossLedger) {
	l.SegsSent += o.SegsSent
	l.SegsRetrans += o.SegsRetrans
	l.RetransFast += o.RetransFast
	l.RetransRTO += o.RetransRTO
	l.RetransTLP += o.RetransTLP
	l.RetransReneg += o.RetransReneg
	l.LossDetected += o.LossDetected
	l.SpuriousRetrans += o.SpuriousRetrans
	l.RTOFires += o.RTOFires
	l.TLPFires += o.TLPFires
	l.SpuriousRTOUndos += o.SpuriousRTOUndos
	l.SackRenegings += o.SackRenegings
	l.FlowAborts += o.FlowAborts
	l.RcvDupSegs += o.RcvDupSegs
	l.PathDataDrops += o.PathDataDrops
	l.PathErasures += o.PathErasures
	l.PathCorrupt += o.PathCorrupt
	l.PathOutage += o.PathOutage
	l.PathDuplicates += o.PathDuplicates
}

// Check verifies the ledger identities that must hold for any
// completed flow and returns human-readable violations (empty means
// consistent):
//
//  1. Every retransmission has exactly one cause:
//     SegsRetrans == RetransFast + RetransRTO + RetransTLP + RetransReneg.
//  2. Fast retransmissions never exceed fast loss detections (a lost
//     mark may be cancelled by a spurious ACK, never invented):
//     RetransFast <= LossDetected.
//  3. Duplicate payload at the receiver can only come from sender
//     retransmissions or path-level duplication — fresh transmissions
//     cover disjoint byte ranges, so they can never re-deliver bytes
//     the receiver already holds:
//     RcvDupSegs <= SegsRetrans + PathDuplicates.
//
// The stronger drop identity — PathDataDrops == LossDetected when the
// path has no random loss and the flow saw no RTO or TLP — depends on
// the scenario, so callers assert it themselves where it applies (see
// the integration test).
func (l LossLedger) Check() []string {
	var bad []string
	if l.SegsRetrans != l.RetransFast+l.RetransRTO+l.RetransTLP+l.RetransReneg {
		bad = append(bad, "retransmissions not partitioned by cause: "+
			strconv.FormatInt(l.SegsRetrans, 10)+" != "+strconv.FormatInt(l.RetransFast, 10)+"+"+
			strconv.FormatInt(l.RetransRTO, 10)+"+"+strconv.FormatInt(l.RetransTLP, 10)+"+"+
			strconv.FormatInt(l.RetransReneg, 10))
	}
	if l.RetransFast > l.LossDetected {
		bad = append(bad, "fast retransmits ("+strconv.FormatInt(l.RetransFast, 10)+
			") exceed fast loss detections ("+strconv.FormatInt(l.LossDetected, 10)+")")
	}
	if l.RcvDupSegs > l.SegsRetrans+l.PathDuplicates {
		bad = append(bad, "receiver dup segments ("+strconv.FormatInt(l.RcvDupSegs, 10)+") exceed retransmissions ("+
			strconv.FormatInt(l.SegsRetrans, 10)+") + path duplicates ("+strconv.FormatInt(l.PathDuplicates, 10)+")")
	}
	return bad
}
