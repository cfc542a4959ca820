package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// encodedBytes returns the byte count EncodeSegment wrote for seg:
// the wire length when the payload is real, header-only otherwise.
func encodedBytes(seg *Segment, wireLen int) int {
	if seg.Payload != nil {
		return wireLen
	}
	return wireLen - seg.PayloadLen
}

func mustEncode(t *testing.T, seg *Segment) ([]byte, int) {
	t.Helper()
	var buf [0xFFFF]byte
	n, err := EncodeSegment(buf[:], seg)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf[:encodedBytes(seg, n)], n
}

func TestRoundTripDataSegment(t *testing.T) {
	in := &Segment{
		SrcAddr: 0x0A000001, DstAddr: 0x0A000002,
		SrcPort: 7, DstPort: 7,
		Seq:        0xFFFFFE00, // wraps mid-segment
		Flags:      FlagACK | FlagPSH,
		Window:     65535,
		HasTS:      true,
		TSVal:      12345678,
		TSEcr:      87654321,
		PayloadLen: 1448,
		Payload:    bytes.Repeat([]byte{0xA5}, 1448),
	}
	frame, wireLen := mustEncode(t, in)
	if wireLen != MinHeaderLen+12+1448 {
		t.Fatalf("wire length %d", wireLen)
	}
	var out Segment
	n, err := DecodeSegment(frame, &out)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if n != wireLen {
		t.Fatalf("decode length %d, want %d", n, wireLen)
	}
	if !bytes.Equal(out.Payload, in.Payload) {
		t.Fatal("payload corrupted")
	}
	out.Payload = nil
	ref := *in
	ref.Payload = nil
	if !reflect.DeepEqual(out, ref) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", out, ref)
	}
}

func TestRoundTripHeaderOnlyVirtualPayload(t *testing.T) {
	// The simulator's case: the frame carries only headers while the IP
	// total length covers 1448 virtual payload bytes.
	in := &Segment{
		SrcPort: 3, DstPort: 3,
		Seq:        2896,
		Flags:      FlagACK | FlagPSH,
		Window:     65535,
		PayloadLen: 1448,
	}
	frame, wireLen := mustEncode(t, in)
	if len(frame) != MinHeaderLen {
		t.Fatalf("header-only frame is %d bytes", len(frame))
	}
	var out Segment
	n, err := DecodeSegment(frame, &out)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if n != wireLen || n != MinHeaderLen+1448 {
		t.Fatalf("wire length %d", n)
	}
	if out.Payload != nil || out.PayloadLen != 1448 {
		t.Fatalf("virtual payload decoded as %d bytes, Payload=%v", out.PayloadLen, out.Payload)
	}
	if !out.IsData() {
		t.Fatal("virtual-payload segment must still be data")
	}
}

func TestRoundTripSynOptions(t *testing.T) {
	in := &Segment{
		SrcPort: 1, DstPort: 1,
		Flags:         FlagSYN,
		Window:        65535,
		HasMSS:        true,
		MSS:           1448,
		HasWScale:     true,
		WScale:        7,
		SackPermitted: true,
		HasTS:         true,
		TSVal:         42,
	}
	frame, _ := mustEncode(t, in)
	var out Segment
	if _, err := DecodeSegment(frame, &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(out, *in) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", out, *in)
	}
}

func TestSackTruncationKeepsMostRecent(t *testing.T) {
	// Four blocks beside a timestamp option exceed the 40-byte option
	// budget: exactly the first three (most recently changed) survive.
	in := &Segment{
		Flags: FlagACK, Window: 65535, HasTS: true,
		NSack: 4,
		Sack: [MaxSackBlocks]SackBlock{
			{8000, 9000}, {6000, 7000}, {4000, 5000}, {2000, 3000},
		},
	}
	frame, _ := mustEncode(t, in)
	var out Segment
	if _, err := DecodeSegment(frame, &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.NSack != 3 {
		t.Fatalf("NSack = %d, want 3 (deterministic truncation)", out.NSack)
	}
	for i, b := range out.SackBlocks() {
		if b != in.Sack[i] {
			t.Fatalf("block %d = %v, want %v (must keep the freshest)", i, b, in.Sack[i])
		}
	}

	// Without the timestamp option all four fit (RFC 2018 maximum).
	in.HasTS = false
	frame, _ = mustEncode(t, in)
	if _, err := DecodeSegment(frame, &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.NSack != 4 {
		t.Fatalf("NSack = %d, want 4 without timestamps", out.NSack)
	}
}

// corrupt re-encodes a fresh copy of seg and applies f to the frame,
// fixing the IP checksum afterwards unless f broke the IP header on
// purpose.
func corruptFrame(t *testing.T, seg *Segment, fixSum bool, f func(frame []byte)) []byte {
	t.Helper()
	frame, _ := mustEncode(t, seg)
	f(frame)
	if fixSum {
		frame[10], frame[11] = 0, 0
		binary.BigEndian.PutUint16(frame[10:], ipChecksum(frame[:IPHeaderLen]))
	}
	return frame
}

func TestDecodeStrictErrors(t *testing.T) {
	base := func() *Segment {
		return &Segment{
			SrcPort: 9, DstPort: 9, Seq: 1000, Flags: FlagACK | FlagPSH,
			Window: 65535, HasTS: true, TSVal: 1, TSEcr: 2, PayloadLen: 100,
		}
	}
	sacky := &Segment{
		Flags: FlagACK, Window: 65535, NSack: 1,
		Sack: [MaxSackBlocks]SackBlock{{1000, 2000}},
	}
	cases := []struct {
		name  string
		frame []byte
		want  error
	}{
		{"truncated", []byte{0x45, 0, 0, 40}, ErrTruncated},
		{"empty", nil, ErrTruncated},
		{"ip version", corruptFrame(t, base(), true, func(f []byte) { f[0] = 0x65 }), ErrIPVersion},
		{"ip options", corruptFrame(t, base(), true, func(f []byte) { f[0] = 0x46 }), ErrIPHeaderLen},
		{"not tcp", corruptFrame(t, base(), true, func(f []byte) { f[9] = 17 }), ErrIPProto},
		{"checksum", corruptFrame(t, base(), false, func(f []byte) { f[12]++ }), ErrIPChecksum},
		{"tcp offset small", corruptFrame(t, base(), true, func(f []byte) { f[IPHeaderLen+12] = 4 << 4 }), ErrTCPOffset},
		// A pure ACK's wire length is 40, so an offset claiming a
		// 60-byte TCP header points past the datagram.
		{"tcp offset past end", corruptFrame(t, &Segment{Flags: FlagACK, Window: 65535}, true, func(f []byte) { f[IPHeaderLen+12] = 15 << 4 }), ErrTCPOffset},
		{"length mismatch", append(corruptFrame(t, base(), true, func([]byte) {}), 0), ErrIPLength},
		{"option length", corruptFrame(t, base(), true, func(f []byte) {
			f[IPHeaderLen+TCPHeaderLen+3] = 1 // TS option: NOP,NOP,kind,len → len 1
		}), ErrOptionLen},
		{"option overrun", corruptFrame(t, base(), true, func(f []byte) {
			f[IPHeaderLen+TCPHeaderLen+3] = 40 // TS length runs past the option area
		}), ErrOptionLen},
		{"sack length", corruptFrame(t, sacky, true, func(f []byte) {
			f[IPHeaderLen+TCPHeaderLen+3] = 9 // SACK option: 2+8n only
		}), ErrSackLen},
	}
	for _, tc := range cases {
		var seg Segment
		_, err := DecodeSegment(tc.frame, &seg)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestDecodeDuplicateOption(t *testing.T) {
	// Hand-build a frame whose option area repeats the timestamp
	// option; the encoder can never emit this, so splice it manually.
	seg := &Segment{Flags: FlagACK, Window: 65535, HasTS: true, TSVal: 7, TSEcr: 8}
	frame, _ := mustEncode(t, seg)
	opts := frame[IPHeaderLen+TCPHeaderLen:]
	dup := make([]byte, 0, len(frame)+len(opts))
	dup = append(dup, frame...)
	dup = append(dup, opts...) // second copy of the TS group
	optLen := 2 * len(opts)
	dup[IPHeaderLen+12] = uint8((TCPHeaderLen+optLen)/4) << 4
	binary.BigEndian.PutUint16(dup[2:], uint16(len(dup)))
	dup[10], dup[11] = 0, 0
	binary.BigEndian.PutUint16(dup[10:], ipChecksum(dup[:IPHeaderLen]))
	var out Segment
	if _, err := DecodeSegment(dup, &out); !errors.Is(err, ErrDupOption) {
		t.Fatalf("err = %v, want ErrDupOption", err)
	}
}

func TestUnknownOptionSkipped(t *testing.T) {
	// A foreign option (MD5 signature, kind 19) must be stepped over by
	// its stated length without disturbing the options after it.
	seg := &Segment{Flags: FlagACK, Window: 65535, HasTS: true, TSVal: 9, TSEcr: 10}
	frame, _ := mustEncode(t, seg)
	withOpt := make([]byte, 0, len(frame)+4)
	withOpt = append(withOpt, frame[:IPHeaderLen+TCPHeaderLen]...)
	withOpt = append(withOpt, 19, 4, 0xDE, 0xAD) // unknown option first
	withOpt = append(withOpt, frame[IPHeaderLen+TCPHeaderLen:]...)
	optLen := 4 + 12
	withOpt[IPHeaderLen+12] = uint8((TCPHeaderLen+optLen)/4) << 4
	binary.BigEndian.PutUint16(withOpt[2:], uint16(len(withOpt)))
	withOpt[10], withOpt[11] = 0, 0
	binary.BigEndian.PutUint16(withOpt[10:], ipChecksum(withOpt[:IPHeaderLen]))
	var out Segment
	if _, err := DecodeSegment(withOpt, &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !out.HasTS || out.TSVal != 9 || out.TSEcr != 10 {
		t.Fatalf("timestamp lost behind unknown option: %+v", out)
	}
}

func TestUnwrap32(t *testing.T) {
	cases := []struct {
		near int64
		v    uint32
		want int64
	}{
		{0, 0, 0},
		{1000, 1500, 1500},
		{1 << 32, 100, 1<<32 + 100},           // epoch above
		{1<<32 - 50, 100, 1<<32 + 100},        // forward across the wrap
		{1<<32 + 50, 0xFFFFFF00, 1<<32 - 256}, // backward across the wrap
		{5<<32 + 123, 123, 5<<32 + 123},       // identity at a high epoch
		{100, 0xFFFFFFF0, -16},                // adversarial: negative is possible
	}
	for _, tc := range cases {
		if got := Unwrap32(tc.near, tc.v); got != tc.want {
			t.Errorf("Unwrap32(%d, %#x) = %d, want %d", tc.near, tc.v, got, tc.want)
		}
	}
	if got := Unwrap32(1<<32+50, 0xFFFFFF00); uint32(got) != 0xFFFFFF00 {
		t.Error("unwrap must preserve the low 32 bits")
	}
}

func TestUnwrapTS(t *testing.T) {
	for _, gap := range []time.Duration{0, time.Millisecond, 1600 * time.Millisecond, 4 * time.Second} {
		for _, now := range []time.Duration{gap, time.Second + gap, 10*time.Second + gap, 1<<33 + gap} {
			sent := now - gap
			if got := UnwrapTS(now, WrapTS(sent)); got != sent {
				t.Fatalf("UnwrapTS(%v, WrapTS(%v)) = %v", now, sent, got)
			}
		}
	}
}

// TestIPChecksumMatchesRFC1071 holds the nine-word sum to the RFC 1071
// byte-pair loop over the header with its checksum field zeroed, on
// random headers and on the all-ones one that carries twice.
func TestIPChecksumMatchesRFC1071(t *testing.T) {
	ref := func(h []byte) uint16 {
		z := bytes.Clone(h)
		z[10], z[11] = 0, 0
		var sum uint32
		for i := 0; i+1 < len(z); i += 2 {
			sum += uint32(z[i])<<8 | uint32(z[i+1])
		}
		for sum>>16 != 0 {
			sum = sum&0xFFFF + sum>>16
		}
		return ^uint16(sum)
	}
	rng := rand.New(rand.NewSource(1))
	h := bytes.Repeat([]byte{0xFF}, IPHeaderLen)
	for i := 0; i < 100_000; i++ {
		if got, want := ipChecksum(h), ref(h); got != want {
			t.Fatalf("header % x: ipChecksum %#04x, RFC 1071 %#04x", h, got, want)
		}
		rng.Read(h)
	}
}

// TestDecodeLeavesFrameUnwritten checks that a decode, accepted or
// refused for its checksum, reads the frame and never writes it.
func TestDecodeLeavesFrameUnwritten(t *testing.T) {
	seg := &Segment{Flags: FlagACK, Window: 65535, HasTS: true, TSVal: 1, TSEcr: 2, PayloadLen: 100}
	good, _ := mustEncode(t, seg)
	bad := bytes.Clone(good)
	bad[11] ^= 1
	for _, c := range []struct {
		frame []byte
		want  error
	}{{good, nil}, {bad, ErrIPChecksum}} {
		was := bytes.Clone(c.frame)
		var out Segment
		if _, err := DecodeSegment(c.frame, &out); !errors.Is(err, c.want) {
			t.Fatalf("decode of % x: %v, want %v", c.frame[:IPHeaderLen], err, c.want)
		}
		if !bytes.Equal(c.frame, was) {
			t.Fatalf("decode wrote into the frame: % x, was % x", c.frame, was)
		}
	}
}

// TestCodecAllocsZero gates the hot path: encode and decode must not
// allocate (the fig11 benchmark would regress on allocs/op otherwise).
func TestCodecAllocsZero(t *testing.T) {
	in := &Segment{
		Flags: FlagACK, Window: 65535, HasTS: true, TSVal: 1, TSEcr: 2,
		NSack: 3,
		Sack:  [MaxSackBlocks]SackBlock{{3000, 4000}, {5000, 6000}, {7000, 8000}},
	}
	var buf [MaxHeaderLen]byte
	var out Segment
	allocs := testing.AllocsPerRun(1000, func() {
		n, err := EncodeSegment(buf[:], in)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeSegment(buf[:n], &out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("codec allocates %.1f per round trip, want 0", allocs)
	}
}

func BenchmarkEncodeSegment(b *testing.B) {
	in := &Segment{
		Flags: FlagACK | FlagPSH, Window: 65535, Seq: 123456,
		HasTS: true, TSVal: 1, TSEcr: 2, PayloadLen: 1448,
	}
	var buf [MaxHeaderLen]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeSegment(buf[:], in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeSegment(b *testing.B) {
	in := &Segment{
		Flags: FlagACK, Window: 65535, HasTS: true, TSVal: 1, TSEcr: 2,
		NSack: 3,
		Sack:  [MaxSackBlocks]SackBlock{{3000, 4000}, {5000, 6000}, {7000, 8000}},
	}
	var buf [MaxHeaderLen]byte
	n, err := EncodeSegment(buf[:], in)
	if err != nil {
		b.Fatal(err)
	}
	frame := buf[:n]
	var out Segment
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeSegment(frame, &out); err != nil {
			b.Fatal(err)
		}
	}
}
