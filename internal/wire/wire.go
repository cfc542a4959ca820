// Package wire defines the transport's on-the-wire representation and
// the substrate boundary the endpoints speak through: the codec
// (codec.go) between a Segment and its IPv4+TCP frame, strict and
// allocation-free, and Conn, the seam the endpoints speak through.
// simbackend implements it over the simulator; the transport's tests
// and the benchmark's stub substitute fakes through it (DESIGN.md,
// "Wire layer").
//
// Wire values are raw: sequence numbers, ACKs and timestamps are the
// 32-bit fields that actually travel. Endpoints keep 64-bit state and
// convert at the boundary with Unwrap32/UnwrapTS. Timestamps are in
// nanoseconds since the connection epoch, so the 32-bit field wraps
// every ~4.29 s; UnwrapTS is exact as long as the echo returns within
// one wrap, which bounds tolerable RTT+queueing at ~4 s.
package wire

import (
	"time"

	"suss/internal/netsim"
)

// TCP header flags (byte 13 of the TCP header).
const (
	FlagFIN uint8 = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
)

// MaxSackBlocks is the decoder's SACK capacity. Four blocks is the
// RFC 2018 maximum without other options; with timestamps present the
// encoder can fit only three and truncates deterministically (the
// blocks are ordered most-recently-changed first, so the dropped one
// is the stalest).
const MaxSackBlocks = 4

// SackBlock is one selective-acknowledgment range [Start, End) in raw
// 32-bit sequence space.
type SackBlock struct {
	Start, End uint32
}

// Segment is the in-memory image of one frame. Field values are raw
// wire values (32-bit sequence space, nanosecond timestamps modulo
// 2^32); the transport converts to and from its 64-bit state at the
// boundary.
type Segment struct {
	// SrcAddr/DstAddr are the IPv4 addresses. The transport leaves
	// them zero; the backend fills them before encoding (the simulator
	// maps node IDs into 10.0.0.0/8).
	SrcAddr, DstAddr uint32
	// SrcPort/DstPort carry the flow identity.
	SrcPort, DstPort uint16

	// Seq is the sequence number of the first payload byte; Ack is the
	// cumulative acknowledgment (valid when FlagACK is set).
	Seq, Ack uint32
	Flags    uint8
	// Window is the advertised receive window (unscaled).
	Window uint16

	// MSS option (kind 2, SYN only). Present when HasMSS.
	HasMSS bool
	MSS    uint16
	// Window-scale option (kind 3, SYN only). Present when HasWScale.
	HasWScale bool
	WScale    uint8
	// SACK-permitted option (kind 4, SYN only).
	SackPermitted bool
	// Timestamps option (kind 8): TSVal is the sender's clock, TSEcr
	// echoes the peer's. Present when HasTS. Segments that must not
	// produce an RTT sample (retransmissions under Karn's rule, ACKs
	// with nothing to echo) omit the option entirely.
	HasTS        bool
	TSVal, TSEcr uint32
	// SACK option (kind 5): NSack blocks, most recently changed first.
	NSack int
	Sack  [MaxSackBlocks]SackBlock

	// PayloadLen is the number of application bytes this segment
	// carries — the IP total length covers them even when Payload is
	// nil (a header-only frame whose payload is virtual, the simulator
	// case). When Payload is non-nil its length must equal PayloadLen
	// and the bytes are part of the encoded frame.
	PayloadLen int
	Payload    []byte
}

// IsData reports whether the segment carries payload (real or
// virtual).
func (s *Segment) IsData() bool { return s.PayloadLen > 0 }

// SackBlocks returns the valid SACK blocks as a view into the inline
// array (no allocation). Valid only while the caller owns the
// segment.
func (s *Segment) SackBlocks() []SackBlock { return s.Sack[:s.NSack] }

// AddSack appends one SACK block, reporting false when the inline
// array is full.
func (s *Segment) AddSack(b SackBlock) bool {
	if s.NSack >= MaxSackBlocks {
		return false
	}
	s.Sack[s.NSack] = b
	s.NSack++
	return true
}

// Unwrap32 returns the 64-bit value whose low 32 bits equal v and
// that lies nearest to near — the standard sequence-number unwrap,
// exact while the true value is within 2^31 of near. The result can
// be negative for adversarial inputs near zero; callers validate
// range.
func Unwrap32(near int64, v uint32) int64 {
	x := (near &^ 0xFFFFFFFF) | int64(v)
	if d := x - near; d > 1<<31 {
		x -= 1 << 32
	} else if d < -(1 << 31) {
		x += 1 << 32
	}
	return x
}

// WrapTS converts a connection-epoch time to the 32-bit nanosecond
// wire timestamp.
func WrapTS(t time.Duration) uint32 { return uint32(t) }

// UnwrapTS recovers the time a wire timestamp was taken, assuming it
// was taken no more than one 32-bit nanosecond wrap (~4.29 s) before
// now. Echo gaps above that are unrepresentable and alias to a later
// time.
func UnwrapTS(now time.Duration, v uint32) time.Duration {
	return now - time.Duration(uint32(now)-v)
}

// SendMeta carries per-send facts that ride outside the frame; the
// wire has no such bits.
type SendMeta struct {
	// WireSize, when positive, overrides the modeled wire size the
	// backend accounts for the frame (the simulator's configurable
	// per-segment header overhead). Zero means the frame's own length.
	WireSize int
}

// Handler consumes one decoded incoming segment. The segment is
// scratch owned by the Conn and valid only for the duration of the
// call — handlers copy what they keep. wireLen is the frame's length
// on the wire (the IP total length).
type Handler func(seg *Segment, wireLen int)

// Conn is one endpoint's attachment to a substrate, bound to a single
// flow: Send frames and transmits a segment, the handler receives
// decoded peer segments, and Clock supplies the virtual clock and
// timer wheel every transport timer runs on.
//
// Conns are not goroutine-safe: all calls — and the handler — run on
// the simulator's event loop.
type Conn interface {
	// Clock returns the scheduler this endpoint's timers and callbacks
	// run on.
	Clock() *netsim.Simulator
	// Send encodes seg and transmits the frame, returning its wire
	// length (the IP total length). The segment is caller-owned
	// scratch; Send does not retain it.
	Send(seg *Segment, meta SendMeta) int
	// SetHandler installs the receive callback. Frames that fail
	// strict decoding are dropped by the backend, as a checksum-
	// failing frame would be by a NIC.
	SetHandler(h Handler)
}
