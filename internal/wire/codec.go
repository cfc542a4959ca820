package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Frame geometry. The codec emits a fixed 20-byte IPv4 header (no IP
// options) followed by a TCP header whose option area is padded to a
// 4-byte boundary with NOPs, then the payload when it is real. The IP
// total-length field covers the payload even when the frame itself is
// header-only (virtual payload, the simulator case), which is what
// lets one decoder serve both worlds: a frame is valid when its
// length equals either the header length (payload virtual) or the
// total length (payload present).
const (
	// IPHeaderLen is the fixed IPv4 header size (no options).
	IPHeaderLen = 20
	// TCPHeaderLen is the fixed TCP header size before options.
	TCPHeaderLen = 20
	// MaxTCPOptionsLen is the TCP option-space budget (data offset is
	// a 4-bit word count, so 60-byte TCP header max).
	MaxTCPOptionsLen = 40
	// MinHeaderLen/MaxHeaderLen bound the encoded header region.
	MinHeaderLen = IPHeaderLen + TCPHeaderLen
	MaxHeaderLen = MinHeaderLen + MaxTCPOptionsLen
)

// TCP option kinds the codec understands.
const (
	optEOL      = 0
	optNOP      = 1
	optMSS      = 2
	optWScale   = 3
	optSackPerm = 4
	optSack     = 5
	optTS       = 8
)

// Strict decode/encode validation errors. Decode errors identify the
// first structural violation found; backends treat any of them as a
// NIC-level discard.
var (
	ErrTruncated   = errors.New("wire: frame shorter than its headers")
	ErrIPVersion   = errors.New("wire: not an IPv4 frame")
	ErrIPHeaderLen = errors.New("wire: bad IPv4 header length")
	ErrIPProto     = errors.New("wire: IP protocol is not TCP")
	ErrIPChecksum  = errors.New("wire: IPv4 header checksum mismatch")
	ErrIPLength    = errors.New("wire: frame length matches neither header-only nor total length")
	ErrTCPOffset   = errors.New("wire: bad TCP data offset")
	ErrOptionLen   = errors.New("wire: malformed TCP option length")
	ErrDupOption   = errors.New("wire: TCP option repeated")
	ErrSackLen     = errors.New("wire: SACK option length is not 2+8n, n in 1..4")

	ErrBufTooSmall = errors.New("wire: encode buffer too small")
	ErrPayload     = errors.New("wire: payload slice length disagrees with PayloadLen")
	ErrFrameSize   = errors.New("wire: frame exceeds the 16-bit IP total length")
)

// ipChecksum is the RFC 1071 ones-complement sum over the 20-byte
// IPv4 header h, its checksum field taken as zero: the nine other
// 16-bit words are summed and the field itself is never read.
func ipChecksum(h []byte) uint16 {
	h = h[:IPHeaderLen]
	be := binary.BigEndian
	sum := uint32(be.Uint16(h[0:])) + uint32(be.Uint16(h[2:])) + uint32(be.Uint16(h[4:])) +
		uint32(be.Uint16(h[6:])) + uint32(be.Uint16(h[8:])) + uint32(be.Uint16(h[12:])) +
		uint32(be.Uint16(h[14:])) + uint32(be.Uint16(h[16:])) + uint32(be.Uint16(h[18:]))
	sum = sum&0xFFFF + sum>>16
	sum += sum >> 16
	return ^uint16(sum)
}

// optionsLen returns the encoded (NOP-padded) option-area size for
// seg and the number of SACK blocks that fit beside the other
// options. Every option group is padded to a 4-byte boundary, so the
// area never needs EOL padding.
func optionsLen(seg *Segment) (n, sackFit int) {
	if seg.HasMSS {
		n += 4 // kind, len, 2 value bytes
	}
	if seg.HasWScale {
		n += 4 // NOP + kind, len, shift
	}
	if seg.SackPermitted {
		n += 4 // NOP, NOP + kind, len
	}
	if seg.HasTS {
		n += 12 // NOP, NOP + kind, len, 2×32-bit
	}
	if seg.NSack > 0 {
		// NOP, NOP + kind, len + 8 bytes per block; keep the most
		// recent blocks (the slice is ordered newest-first).
		sackFit = (MaxTCPOptionsLen - n - 4) / 8
		if sackFit > seg.NSack {
			sackFit = seg.NSack
		}
		if sackFit < 0 {
			sackFit = 0
		}
		if sackFit > 0 {
			n += 4 + 8*sackFit
		}
	}
	return n, sackFit
}

// EncodeSegment writes seg as one frame into buf and returns the
// frame's wire length — the IP total length, which counts the payload
// even when it is virtual (Payload nil) and the written frame is
// header-only. The written byte count is the returned length when
// Payload is non-nil, header-only otherwise.
//
// Encoding is canonical: option order and padding are fixed, so equal
// segments encode to equal bytes. SACK blocks beyond what the option
// budget holds are dropped deterministically (the slice is ordered
// most-recent-first; the stale tail goes). The codec allocates
// nothing.
func EncodeSegment(buf []byte, seg *Segment) (int, error) {
	if seg.PayloadLen < 0 || seg.Payload != nil && len(seg.Payload) != seg.PayloadLen {
		return 0, ErrPayload
	}
	optLen, sackFit := optionsLen(seg)
	hdrLen := MinHeaderLen + optLen
	wireLen := hdrLen + seg.PayloadLen
	if wireLen > 0xFFFF {
		return 0, ErrFrameSize
	}
	need := hdrLen
	if seg.Payload != nil {
		need += seg.PayloadLen
	}
	if len(buf) < need {
		return 0, ErrBufTooSmall
	}

	// IPv4 header.
	ip := buf[:IPHeaderLen]
	ip[0] = 0x45 // version 4, IHL 5
	ip[1] = 0
	binary.BigEndian.PutUint16(ip[2:], uint16(wireLen))
	binary.BigEndian.PutUint16(ip[4:], 0)      // identification
	binary.BigEndian.PutUint16(ip[6:], 0x4000) // DF
	ip[8] = 64                                 // TTL
	ip[9] = 6                                  // TCP
	binary.BigEndian.PutUint32(ip[12:], seg.SrcAddr)
	binary.BigEndian.PutUint32(ip[16:], seg.DstAddr)
	binary.BigEndian.PutUint16(ip[10:], ipChecksum(ip))

	// TCP header.
	tcp := buf[IPHeaderLen:hdrLen]
	binary.BigEndian.PutUint16(tcp[0:], seg.SrcPort)
	binary.BigEndian.PutUint16(tcp[2:], seg.DstPort)
	binary.BigEndian.PutUint32(tcp[4:], seg.Seq)
	binary.BigEndian.PutUint32(tcp[8:], seg.Ack)
	tcp[12] = uint8((TCPHeaderLen+optLen)/4) << 4
	tcp[13] = seg.Flags
	binary.BigEndian.PutUint16(tcp[14:], seg.Window)
	// Checksum stays zero: the transport treats it as offloaded (the
	// simulator and pipe have no corrupting medium; UDP has its own).
	tcp[16], tcp[17] = 0, 0
	binary.BigEndian.PutUint16(tcp[18:], 0) // urgent pointer

	o := tcp[TCPHeaderLen:TCPHeaderLen] // options, appended in place
	if seg.HasMSS {
		o = append(o, optMSS, 4, byte(seg.MSS>>8), byte(seg.MSS))
	}
	if seg.HasWScale {
		o = append(o, optNOP, optWScale, 3, seg.WScale)
	}
	if seg.SackPermitted {
		o = append(o, optNOP, optNOP, optSackPerm, 2)
	}
	if seg.HasTS {
		o = append(o, optNOP, optNOP, optTS, 10,
			byte(seg.TSVal>>24), byte(seg.TSVal>>16), byte(seg.TSVal>>8), byte(seg.TSVal),
			byte(seg.TSEcr>>24), byte(seg.TSEcr>>16), byte(seg.TSEcr>>8), byte(seg.TSEcr))
	}
	if sackFit > 0 {
		o = append(o, optNOP, optNOP, optSack, byte(2+8*sackFit))
		for _, b := range seg.Sack[:sackFit] {
			o = append(o, byte(b.Start>>24), byte(b.Start>>16), byte(b.Start>>8), byte(b.Start),
				byte(b.End>>24), byte(b.End>>16), byte(b.End>>8), byte(b.End))
		}
	}
	if len(o) != optLen {
		panic(fmt.Sprintf("wire: option area %d bytes, computed %d", len(o), optLen))
	}

	if seg.Payload != nil {
		copy(buf[hdrLen:], seg.Payload)
	}
	return wireLen, nil
}

// DecodeSegment parses one frame into seg, replacing its contents,
// and returns the frame's wire length (the IP total length). It
// validates strictly: structural violations — truncation, bad
// version, checksum mismatch, malformed option lengths, repeated
// options — are errors, and seg's contents are unspecified after one.
// Semantic nonsense (an inverted SACK range, an ACK for data never
// sent) is the transport's business, not the codec's.
//
// When the frame carries its payload, seg.Payload aliases the frame's
// tail — the segment borrows the frame's storage and is valid only as
// long as the frame is. Header-only frames (virtual payload) leave
// Payload nil with PayloadLen from the total length. The codec
// allocates nothing.
func DecodeSegment(frame []byte, seg *Segment) (int, error) {
	*seg = Segment{}
	if len(frame) < MinHeaderLen {
		return 0, ErrTruncated
	}
	if frame[0]>>4 != 4 {
		return 0, ErrIPVersion
	}
	if frame[0]&0x0F != 5 {
		// The codec never emits IP options; a frame claiming them is
		// from another stack.
		return 0, ErrIPHeaderLen
	}
	if frame[9] != 6 {
		return 0, ErrIPProto
	}
	ip := frame[:IPHeaderLen]
	if binary.BigEndian.Uint16(ip[10:]) != ipChecksum(ip) {
		return 0, ErrIPChecksum
	}
	wireLen := int(binary.BigEndian.Uint16(ip[2:]))
	seg.SrcAddr = binary.BigEndian.Uint32(ip[12:])
	seg.DstAddr = binary.BigEndian.Uint32(ip[16:])

	if len(frame) < IPHeaderLen+TCPHeaderLen {
		return 0, ErrTruncated
	}
	tcp := frame[IPHeaderLen:]
	hdrLen := IPHeaderLen + int(tcp[12]>>4)*4
	if int(tcp[12]>>4) < 5 || hdrLen > wireLen {
		return 0, ErrTCPOffset
	}
	// A frame is either the full datagram (payload present) or just
	// the headers (payload virtual).
	switch len(frame) {
	case wireLen:
		if wireLen > hdrLen {
			seg.Payload = frame[hdrLen:wireLen]
		}
	case hdrLen:
		// Header-only: payload virtual.
	default:
		return 0, ErrIPLength
	}
	seg.PayloadLen = wireLen - hdrLen

	seg.SrcPort = binary.BigEndian.Uint16(tcp[0:])
	seg.DstPort = binary.BigEndian.Uint16(tcp[2:])
	seg.Seq = binary.BigEndian.Uint32(tcp[4:])
	seg.Ack = binary.BigEndian.Uint32(tcp[8:])
	seg.Flags = tcp[13]
	seg.Window = binary.BigEndian.Uint16(tcp[14:])

	opts := tcp[TCPHeaderLen : hdrLen-IPHeaderLen]
	var seen [optTS + 1]bool
	for i := 0; i < len(opts); {
		kind := opts[i]
		if kind == optEOL {
			break
		}
		if kind == optNOP {
			i++
			continue
		}
		if i+1 >= len(opts) {
			return 0, ErrOptionLen
		}
		l := int(opts[i+1])
		if l < 2 || i+l > len(opts) {
			return 0, ErrOptionLen
		}
		if int(kind) < len(seen) {
			if seen[kind] {
				return 0, ErrDupOption
			}
			seen[kind] = true
		}
		body := opts[i+2 : i+l]
		switch kind {
		case optMSS:
			if l != 4 {
				return 0, ErrOptionLen
			}
			seg.HasMSS = true
			seg.MSS = binary.BigEndian.Uint16(body)
		case optWScale:
			if l != 3 {
				return 0, ErrOptionLen
			}
			seg.HasWScale = true
			seg.WScale = body[0]
		case optSackPerm:
			if l != 2 {
				return 0, ErrOptionLen
			}
			seg.SackPermitted = true
		case optTS:
			if l != 10 {
				return 0, ErrOptionLen
			}
			seg.HasTS = true
			seg.TSVal = binary.BigEndian.Uint32(body)
			seg.TSEcr = binary.BigEndian.Uint32(body[4:])
		case optSack:
			n := (l - 2) / 8
			if (l-2)%8 != 0 || n < 1 || n > MaxSackBlocks {
				return 0, ErrSackLen
			}
			seg.NSack = n
			for j := 0; j < n; j++ {
				seg.Sack[j].Start = binary.BigEndian.Uint32(body[8*j:])
				seg.Sack[j].End = binary.BigEndian.Uint32(body[8*j+4:])
			}
		default:
			// Unknown options are skipped by their stated length, the
			// TCP rule that keeps extensions deployable.
		}
		i += l
	}
	return wireLen, nil
}
