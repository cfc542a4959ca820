package tcp

import (
	"testing"
	"time"

	"suss/internal/netsim"
	"suss/internal/wire"
)

// These tests pin SACK behavior at the wire boundary: the blocks are
// read back out of the captured frame bytes with the strict decoder
// and checked against the receiver's interval set as ground truth.

// decodeAck strictly decodes a captured ACK packet's frame.
func decodeAck(t *testing.T, pkt *netsim.Packet) *wire.Segment {
	t.Helper()
	var seg wire.Segment
	if _, err := wire.DecodeSegment(pkt.Frame(), &seg); err != nil {
		t.Fatalf("captured ACK frame does not decode: %v", err)
	}
	return &seg
}

// assertInIntervalSet fails unless the wire block is exactly one of
// the receiver's ground-truth ranges.
func assertInIntervalSet(t *testing.T, r *Receiver, b wire.SackBlock) {
	t.Helper()
	for _, g := range r.ranges.view() {
		if g.Start == int64(b.Start) && g.End == int64(b.End) {
			return
		}
	}
	t.Fatalf("wire SACK block [%d,%d) is not in the receiver's interval set %v",
		b.Start, b.End, r.ranges.view())
}

// TestWireSackTruncationKeepsMostRecent feeds five out-of-order
// islands: the wire has room for only three SACK blocks, and the
// truncation must deterministically keep the most recently changed
// islands, newest first (RFC 2018 §4).
func TestWireSackTruncationKeepsMostRecent(t *testing.T) {
	sim, r, acks := captureAcks(t)
	sim.Schedule(0, func() {
		for _, s := range []int64{2, 4, 6, 8, 10} {
			r.Handle(seg(s), segWireLen)
		}
	})
	sim.RunAll()
	if len(*acks) != 5 {
		t.Fatalf("acks = %d, want 5 (every out-of-order arrival ACKs)", len(*acks))
	}
	a := decodeAck(t, (*acks)[4])
	if a.Ack != 0 {
		t.Fatalf("cum ack %d, want 0", a.Ack)
	}
	if a.NSack != maxSack {
		t.Fatalf("wire carries %d SACK blocks, want %d", a.NSack, maxSack)
	}
	// Newest first: islands 10, 8, 6; islands 2 and 4 fell off.
	want := []int64{10, 8, 6}
	for i, b := range a.SackBlocks() {
		if int64(b.Start) != want[i]*1448 || int64(b.End) != (want[i]+1)*1448 {
			t.Fatalf("block %d = [%d,%d), want island %d", i, b.Start, b.End, want[i])
		}
		assertInIntervalSet(t, r, b)
	}
}

// TestWireSackGrowsWithMerge checks that a block on the wire reports
// the full merged island, not just the triggering segment: after the
// gap between two islands fills, the freshest block must span all
// three segments and match the interval set.
func TestWireSackGrowsWithMerge(t *testing.T) {
	sim, r, acks := captureAcks(t)
	sim.Schedule(0, func() {
		r.Handle(seg(2), segWireLen)
		r.Handle(seg(4), segWireLen)
		r.Handle(seg(3), segWireLen) // bridges the islands
	})
	sim.RunAll()
	a := decodeAck(t, (*acks)[len(*acks)-1])
	if a.NSack < 1 {
		t.Fatal("no SACK blocks on the wire")
	}
	b := a.Sack[0]
	if int64(b.Start) != 2*1448 || int64(b.End) != 5*1448 {
		t.Fatalf("first block [%d,%d), want the merged island [2,5)·MSS", b.Start, b.End)
	}
	assertInIntervalSet(t, r, b)
}

// TestWireDuplicateArrivalReportedFirst pins the D-SACK-style
// ordering: when already-held data arrives again, the next ACK's
// first block is the range containing the duplicate, even though
// another island changed more recently before it.
func TestWireDuplicateArrivalReportedFirst(t *testing.T) {
	sim, r, acks := captureAcks(t)
	sim.Schedule(0, func() {
		r.Handle(seg(2), segWireLen)
		r.Handle(seg(4), segWireLen)
		r.Handle(seg(2), segWireLen) // duplicate of the older island
	})
	sim.RunAll()
	if len(*acks) != 3 {
		t.Fatalf("acks = %d, want 3", len(*acks))
	}
	a := decodeAck(t, (*acks)[2])
	if a.NSack != 2 {
		t.Fatalf("wire carries %d SACK blocks, want 2", a.NSack)
	}
	if int64(a.Sack[0].Start) != 2*1448 || int64(a.Sack[0].End) != 3*1448 {
		t.Fatalf("first block [%d,%d), want the duplicated island [2,3)·MSS",
			a.Sack[0].Start, a.Sack[0].End)
	}
	if int64(a.Sack[1].Start) != 4*1448 {
		t.Fatalf("second block starts at %d, want island 4", a.Sack[1].Start)
	}
	for _, b := range a.SackBlocks() {
		assertInIntervalSet(t, r, b)
	}
}

// TestWireMalformedOptionDropped injects a frame whose timestamp
// option declares an impossible length. The strict decode at the
// conn boundary must reject it — the receiver never sees the
// segment, accepts no bytes, and sends no ACK (the way a NIC drops a
// frame that fails its checks).
func TestWireMalformedOptionDropped(t *testing.T) {
	sim := netsim.NewSimulator()
	p := newTestPath(sim, 1e9, time.Millisecond, 4<<20)
	r, acks := wireReceiver(sim, p, DefaultConfig(), 0)
	sim.Schedule(0, func() {
		pkt := sim.Pool().Get()
		n, err := wire.EncodeSegment(pkt.FrameBuf(), &wire.Segment{
			SrcPort: 1, DstPort: 1,
			Flags: wire.FlagACK | wire.FlagPSH, Window: 65535,
			HasTS: true, TSVal: 1, PayloadLen: 1448,
		})
		if err != nil {
			t.Errorf("encode: %v", err)
			pkt.Release()
			return
		}
		pkt.SetFrameLen(n - 1448)
		// Options start at byte 40: NOP, NOP, TS kind, TS len. Corrupt
		// the length. The TCP checksum is offloaded (zero), so no
		// checksum re-fix hides the damage.
		frame := pkt.FrameBuf()
		if frame[42] != 8 {
			t.Errorf("frame layout changed: byte 42 = %d, want TS kind 8", frame[42])
		}
		frame[43] = 3
		pkt.Flow = 1
		pkt.Dst = p.Receiver.ID()
		pkt.Kind = netsim.Data
		pkt.Size = 1500
		pkt.Seq = 0
		p.Sender.Send(pkt)
	})
	sim.RunAll()
	if got := r.Received(); got != 0 {
		t.Fatalf("receiver accepted %d bytes from a malformed frame", got)
	}
	if len(*acks) != 0 {
		t.Fatalf("receiver ACKed a malformed frame (%d acks)", len(*acks))
	}
	if st := sim.Pool().Stats(); st.Outstanding() != 0 {
		t.Fatalf("%d packets leaked on the drop path", st.Outstanding())
	}
}
