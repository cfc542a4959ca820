package netsim

import "time"

// FlowID identifies a transport flow within a simulation.
type FlowID int

// PacketKind distinguishes data segments from ACKs on the wire. The
// simulator itself treats both identically (bytes through queues);
// endpoints decode the frame, and the kind is there for the link's
// drop and duplicate events and for tooling that filters.
type PacketKind uint8

const (
	// Data carries application payload from sender to receiver.
	Data PacketKind = iota
	// Ack flows from receiver back to sender.
	Ack
)

func (k PacketKind) String() string {
	switch k {
	case Data:
		return "data"
	case Ack:
		return "ack"
	default:
		return "unknown"
	}
}

// Packet is the unit moved through links and routers. Its one header
// is the encoded wire frame, which the receiving endpoint decodes; the
// exported fields are what the network layer itself reads: Size for
// serialization and queueing, Dst for routing, and Flow, Kind and Seq
// for the link's drop and duplicate events.
//
// Hot-path packets come from a PacketPool (see Simulator.Pool) and
// follow a single-owner lifecycle: whoever holds the packet — a
// queueing link, then the destination endpoint — must either pass it
// on or Release it exactly once. Observers (trace samplers, OnData
// callbacks, impairment stages) must copy any fields
// they keep; retaining the pointer past the callback reads recycled
// memory. Packets built directly with a literal (tests, ad-hoc
// traffic) have no pool and Release on them is a no-op.
type Packet struct {
	Flow FlowID

	// Size is the wire size in bytes, including all headers.
	Size int

	// Dst is the node address routers forward on.
	Dst NodeID

	// Seq is a data segment's first byte, unwrapped to 64 bits; zero
	// for ACKs.
	Seq int64

	// frame holds the packet's encoded wire image — the IPv4+TCP
	// headers produced by internal/wire. Payload bytes are virtual in
	// the simulator (the IP total length covers them; the buffer does
	// not), so MaxFrameLen is the codec's maximum header size and the
	// storage can live inline: no per-packet allocation, and recycling
	// through the pool costs one small memset. frameLen is zero for
	// packets built without a wire image (ad-hoc test traffic).
	frame    [MaxFrameLen]byte
	frameLen uint8

	// Kind shares a word with frameLen and freed: the three one-byte
	// fields after frame keep Packet at 152 bytes on 64-bit targets.
	Kind PacketKind

	// freed is the sussdebug use-after-release flag (see
	// pool_debug.go).
	freed bool

	// next, at and armSeq thread the packet through the one queue it is
	// in at a time (pktFIFO): a qdisc's, where CoDel stamps at with the
	// enqueue time, then its link's line, where at is its arrival and
	// armSeq the arm sequence its delivery reserved.
	next   *Packet
	at     time.Duration
	armSeq uint64

	// pool is the free list this packet returns to on Release; nil for
	// packets built with a literal.
	pool *PacketPool
}

// MaxFrameLen is the inline frame-buffer capacity: the largest
// header-only wire image internal/wire can encode (20-byte IPv4 +
// 60-byte TCP header with a full option area). Payload bytes are
// virtual in the simulator, so no frame ever needs more.
const MaxFrameLen = 80

// FrameBuf returns the full inline frame buffer for an encoder to
// write into; the caller records the written length with SetFrameLen.
func (p *Packet) FrameBuf() []byte { return p.frame[:] }

// SetFrameLen records how many bytes of the frame buffer hold the
// encoded wire image.
func (p *Packet) SetFrameLen(n int) {
	if n < 0 || n > MaxFrameLen {
		panic("netsim: frame length out of range")
	}
	p.frameLen = uint8(n)
}

// Frame returns the packet's encoded wire image (empty for packets
// that never carried one). The view is valid only while the caller
// owns the packet.
func (p *Packet) Frame() []byte { return p.frame[:p.frameLen] }

// CopyFrom copies every wire field of src into p while preserving p's
// own pool identity and queue links, so a pooled packet can become a
// byte-for-byte duplicate of another without corrupting either free
// list or queue. Used by the duplication impairment stage.
func (p *Packet) CopyFrom(src *Packet) {
	pool, freed, next, at, armSeq := p.pool, p.freed, p.next, p.at, p.armSeq
	*p = *src
	p.pool, p.freed, p.next, p.at, p.armSeq = pool, freed, next, at, armSeq
}

// NodeID addresses a node (host or router) in the topology.
type NodeID int

// Node consumes packets delivered by links.
type Node interface {
	// ID returns the node's address.
	ID() NodeID
	// Deliver hands the node a packet that has fully arrived.
	Deliver(pkt *Packet)
}
