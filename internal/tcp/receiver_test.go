package tcp

import (
	"testing"
	"time"

	"suss/internal/netsim"
	"suss/internal/wire"
	"suss/internal/wire/simbackend"
)

// segWireLen is the frame length Handle is told for a full-MSS test
// segment (header + options; the exact value only feeds byte
// counters).
const segWireLen = 1500

// wireReceiver builds a receiver attached through the simulator
// backend, with the far host capturing its ACK packets instead of
// routing them into a sender.
func wireReceiver(sim *netsim.Simulator, p *netsim.Path, cfg Config, size int64) (*Receiver, *[]*netsim.Packet) {
	var acks []*netsim.Packet
	p.Sender.SetHandler(func(pkt *netsim.Packet) { acks = append(acks, pkt) })
	conn := simbackend.New(sim, p.Receiver, NewDemux(p.Receiver), p.Sender.ID(), 1)
	r := NewReceiver(conn, cfg, 1, size)
	conn.SetHandler(r.Handle)
	return r, &acks
}

func captureAcks(t *testing.T) (*netsim.Simulator, *Receiver, *[]*netsim.Packet) {
	t.Helper()
	sim := netsim.NewSimulator()
	p := newTestPath(sim, 1e9, time.Millisecond, 4<<20)
	r, acks := wireReceiver(sim, p, DefaultConfig(), 0)
	return sim, r, acks
}

// seg builds a decoded data segment the way the wire boundary hands
// one to the receiver.
func seg(seq int64) *wire.Segment {
	return &wire.Segment{
		Flags:      wire.FlagACK | wire.FlagPSH,
		Window:     65535,
		Seq:        uint32(seq * 1448),
		PayloadLen: 1448,
	}
}

func TestReceiverSACKBlockLimit(t *testing.T) {
	sim, r, acks := captureAcks(t)
	sim.Schedule(0, func() {
		// Four disjoint out-of-order islands: the ACK may carry at most
		// three SACK ranges (RFC 2018).
		for _, s := range []int64{2, 4, 6, 8} {
			r.Handle(seg(s), segWireLen)
		}
	})
	sim.RunAll()
	last := decodeAck(t, (*acks)[len(*acks)-1])
	if last.NSack > 3 {
		t.Fatalf("ACK carries %d SACK blocks, max is 3", last.NSack)
	}
	if last.Ack != 0 {
		t.Fatalf("cum ack %d, want 0 (nothing in order)", last.Ack)
	}
	// The most recently received island must be the first block.
	if last.NSack == 0 || last.Sack[0].Start != 8*1448 {
		t.Fatalf("first SACK block %v, want the freshest island (seq 8)", last.SackBlocks())
	}
}

func TestReceiverImmediateAckOnGap(t *testing.T) {
	// Heavy delayed ACKs (every 4th packet): only out-of-order data may
	// force an immediate ACK (dupack semantics).
	sim := netsim.NewSimulator()
	p := newTestPath(sim, 1e9, time.Millisecond, 4<<20)
	cfg := DefaultConfig()
	cfg.AckEvery = 4
	r, acks := wireReceiver(sim, p, cfg, 0)
	sim.Schedule(0, func() {
		r.Handle(seg(0), segWireLen) // in-order: withheld (1 of 4)
		r.Handle(seg(2), segWireLen) // gap! must ACK immediately
	})
	sim.Run(10 * time.Millisecond)
	if len(*acks) == 0 {
		t.Fatal("no immediate ACK on out-of-order arrival")
	}
}

func TestReceiverDelAckTimeout(t *testing.T) {
	sim := netsim.NewSimulator()
	p := newTestPath(sim, 1e9, time.Millisecond, 4<<20)
	var acks []*netsim.Packet
	var ackAt []time.Duration
	p.Sender.SetHandler(func(pkt *netsim.Packet) {
		acks = append(acks, pkt)
		ackAt = append(ackAt, sim.Now())
	})
	cfg := DefaultConfig()
	cfg.AckEvery = 2
	cfg.DelAckTimeout = 40 * time.Millisecond
	conn := simbackend.New(sim, p.Receiver, NewDemux(p.Receiver), p.Sender.ID(), 1)
	r := NewReceiver(conn, cfg, 1, 0)
	sim.Schedule(0, func() { r.Handle(seg(0), segWireLen) }) // single packet, withheld
	sim.Run(time.Second)
	if len(acks) != 1 {
		t.Fatalf("acks = %d, want exactly 1 (delack timer)", len(acks))
	}
	// Fired by the timeout, not immediately.
	if ackAt[0] < 35*time.Millisecond || ackAt[0] > 50*time.Millisecond {
		t.Errorf("delack fired at %v, want ≈40ms", ackAt[0])
	}
	if a := decodeAck(t, acks[0]); a.Ack != 1448 {
		t.Errorf("cum ack %d, want 1448", a.Ack)
	}
}

func TestReceiverDuplicateDataNotDoubleCounted(t *testing.T) {
	sim, r, _ := captureAcks(t)
	sim.Schedule(0, func() {
		r.Handle(seg(0), segWireLen)
		r.Handle(seg(0), segWireLen) // duplicate
		r.Handle(seg(1), segWireLen)
		r.Handle(seg(1), segWireLen) // duplicate
	})
	sim.RunAll()
	if got := r.Received(); got != 2*1448 {
		t.Fatalf("received %d, want %d (duplicates must not count)", got, 2*1448)
	}
	if r.CumAck() != 2*1448 {
		t.Fatalf("cum ack %d", r.CumAck())
	}
}

func TestReceiverCompletionFiresOnce(t *testing.T) {
	sim := netsim.NewSimulator()
	p := newTestPath(sim, 1e9, time.Millisecond, 4<<20)
	r, _ := wireReceiver(sim, p, DefaultConfig(), 2*1448)
	fired := 0
	r.OnComplete = func(time.Duration) { fired++ }
	sim.Schedule(0, func() {
		r.Handle(seg(0), segWireLen)
		r.Handle(seg(1), segWireLen)
		r.Handle(seg(1), segWireLen) // extra duplicate after completion
	})
	sim.RunAll()
	if fired != 1 {
		t.Fatalf("OnComplete fired %d times, want 1", fired)
	}
}

func TestReceiverEchoOnlyFromFreshData(t *testing.T) {
	sim, r, acks := captureAcks(t)
	at := 5 * time.Millisecond
	sim.Schedule(at, func() {
		fresh := seg(0)
		fresh.HasTS = true // fresh transmissions carry a timestamp
		fresh.TSVal = wire.WrapTS(at)
		r.Handle(fresh, segWireLen)
		retrans := seg(1) // no timestamp option: Karn's rule on the wire
		r.Handle(retrans, segWireLen)
	})
	sim.RunAll()
	if len(*acks) != 2 {
		t.Fatalf("acks = %d", len(*acks))
	}
	if a := decodeAck(t, (*acks)[0]); !a.HasTS || a.TSEcr != wire.WrapTS(at) {
		t.Error("fresh data's echo not reflected")
	}
	if decodeAck(t, (*acks)[1]).HasTS {
		t.Error("retransmission without echo produced an echoed ACK")
	}
}
