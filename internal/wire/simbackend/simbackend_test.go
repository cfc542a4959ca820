package simbackend_test

import (
	"testing"
	"time"

	"suss/internal/netsim"
	"suss/internal/wire"
	"suss/internal/wire/simbackend"
)

func testPath(sim *netsim.Simulator) *netsim.Path {
	return netsim.NewPath(sim, netsim.PathSpec{Forward: []netsim.LinkConfig{
		{Name: "l", Rate: 1e9, Delay: time.Millisecond, QueueBytes: 4 << 20},
	}})
}

// sequestering reports whether the pool is in its sussdebug
// never-recycle mode (in which steady-state allocation freedom is
// deliberately traded away).
func sequestering(sim *netsim.Simulator) bool {
	sim.Pool().Get().Release()
	sim.Pool().Get().Release()
	return sim.Pool().Stats().Recycled == 0
}

// TestRoundTripOverPath sends a timestamped data segment across a
// simulated link and checks the peer decodes exactly the fields that
// were encoded, with the wire length reported symmetrically.
func TestRoundTripOverPath(t *testing.T) {
	sim := netsim.NewSimulator()
	p := testPath(sim)
	snd := simbackend.New(sim, p.Sender, simbackend.NewDemux(p.Sender), p.Receiver.ID(), 7)
	rcv := simbackend.New(sim, p.Receiver, simbackend.NewDemux(p.Receiver), p.Sender.ID(), 7)

	var got wire.Segment
	var gotLen int
	rcv.SetHandler(func(seg *wire.Segment, wireLen int) {
		got = *seg
		gotLen = wireLen
	})

	var sentLen int
	sim.Schedule(0, func() {
		sentLen = snd.Send(&wire.Segment{
			SrcPort: 7, DstPort: 7,
			Seq:   0xFFFFFE00, // wraps mid-payload
			Flags: wire.FlagACK | wire.FlagPSH, Window: 65535,
			HasTS: true, TSVal: wire.WrapTS(0),
			PayloadLen: 1448,
		}, wire.SendMeta{WireSize: 1500})
	})
	sim.RunAll()

	if gotLen == 0 {
		t.Fatal("peer never saw the segment")
	}
	if gotLen != sentLen {
		t.Fatalf("wire length asymmetric: sent %d, delivered %d", sentLen, gotLen)
	}
	if got.Seq != 0xFFFFFE00 || got.PayloadLen != 1448 || !got.HasTS {
		t.Fatalf("decoded segment mangled: %+v", got)
	}
	if got.Flags&wire.FlagPSH == 0 || got.Flags&wire.FlagACK == 0 {
		t.Fatalf("flags lost: %#x", got.Flags)
	}
	if st := sim.Pool().Stats(); st.Outstanding() != 0 {
		t.Fatalf("%d packets leaked", st.Outstanding())
	}
}

// TestDemuxRoutesByFlow runs two flows into one host and a third,
// unregistered flow; each conn must see only its own segments and the
// stray flow's packets must be released, not leaked.
func TestDemuxRoutesByFlow(t *testing.T) {
	sim := netsim.NewSimulator()
	p := testPath(sim)
	smux := simbackend.NewDemux(p.Sender)
	rmux := simbackend.NewDemux(p.Receiver)

	seen := map[netsim.FlowID][]uint32{}
	mkRcv := func(id netsim.FlowID) {
		c := simbackend.New(sim, p.Receiver, rmux, p.Sender.ID(), id)
		c.SetHandler(func(seg *wire.Segment, _ int) {
			seen[id] = append(seen[id], seg.Seq)
		})
	}
	mkRcv(1)
	mkRcv(2)

	sim.Schedule(0, func() {
		for _, id := range []netsim.FlowID{1, 2, 3} { // 3 is unregistered
			c := simbackend.New(sim, p.Sender, smux, p.Receiver.ID(), id)
			c.Send(&wire.Segment{
				Seq: uint32(100 * id), Flags: wire.FlagACK | wire.FlagPSH,
				Window: 65535, PayloadLen: 1448,
			}, wire.SendMeta{})
		}
	})
	sim.RunAll()

	if len(seen[1]) != 1 || seen[1][0] != 100 {
		t.Fatalf("flow 1 saw %v, want [100]", seen[1])
	}
	if len(seen[2]) != 1 || seen[2][0] != 200 {
		t.Fatalf("flow 2 saw %v, want [200]", seen[2])
	}
	if st := sim.Pool().Stats(); st.Outstanding() != 0 {
		t.Fatalf("%d packets leaked (unregistered flow must be released)", st.Outstanding())
	}
}

// TestDemuxResetForgetsFlows: a reset demux, still the host's handler,
// routes as a new one does. Flows registered before the reset are
// released like any unregistered flow's; a conn registered after it
// gets its own flow's segments.
func TestDemuxResetForgetsFlows(t *testing.T) {
	sim := netsim.NewSimulator()
	p := testPath(sim)
	smux := simbackend.NewDemux(p.Sender)
	rmux := simbackend.NewDemux(p.Receiver)

	var stale, fresh []netsim.FlowID
	for _, id := range []netsim.FlowID{1, 2} {
		id := id
		simbackend.New(sim, p.Receiver, rmux, p.Sender.ID(), id).SetHandler(func(*wire.Segment, int) { stale = append(stale, id) })
	}
	rmux.Reset()
	simbackend.New(sim, p.Receiver, rmux, p.Sender.ID(), 2).SetHandler(func(*wire.Segment, int) { fresh = append(fresh, 2) })

	sim.Schedule(0, func() {
		for _, id := range []netsim.FlowID{1, 2, 3} {
			simbackend.New(sim, p.Sender, smux, p.Receiver.ID(), id).Send(&wire.Segment{
				Flags: wire.FlagACK | wire.FlagPSH, Window: 65535, PayloadLen: 1448,
			}, wire.SendMeta{})
		}
	})
	sim.RunAll()

	if len(stale) != 0 || len(fresh) != 1 {
		t.Fatalf("after Reset: flows registered before it saw %v, the one registered after it %v (want none, [2])", stale, fresh)
	}
	if st := sim.Pool().Stats(); st.Outstanding() != 0 {
		t.Fatalf("%d packets leaked", st.Outstanding())
	}
}

// TestAnnotationMirrorsWire checks that the packet-level annotation
// fields the links and recorders read are reconstructed from the same
// values the peer decodes off the wire.
func TestAnnotationMirrorsWire(t *testing.T) {
	sim := netsim.NewSimulator()
	p := testPath(sim)
	var pkts []*netsim.Packet
	p.Receiver.SetHandler(func(pkt *netsim.Packet) { pkts = append(pkts, pkt) })
	snd := simbackend.New(sim, p.Sender, simbackend.NewDemux(p.Sender), p.Receiver.ID(), 1)

	now := 5 * time.Millisecond
	sim.Schedule(now, func() {
		ack := &wire.Segment{
			Flags: wire.FlagACK, Window: 65535,
			Ack:   2896,
			HasTS: true, TSVal: wire.WrapTS(now), TSEcr: wire.WrapTS(3 * time.Millisecond),
		}
		ack.AddSack(wire.SackBlock{Start: 8 * 1448, End: 9 * 1448})
		ack.AddSack(wire.SackBlock{Start: 5 * 1448, End: 6 * 1448})
		snd.Send(ack, wire.SendMeta{WireSize: 60})
	})
	sim.RunAll()

	if len(pkts) != 1 {
		t.Fatalf("pkts = %d", len(pkts))
	}
	pkt := pkts[0]
	defer pkt.Release()
	if pkt.Kind != netsim.Ack || pkt.CumAck != 2896 || pkt.Size != 60 {
		t.Fatalf("annotation wrong: kind=%v cum=%d size=%d", pkt.Kind, pkt.CumAck, pkt.Size)
	}
	if pkt.NSack != 2 || pkt.SACK[0].Start != 8*1448 || pkt.SACK[1].End != 6*1448 {
		t.Fatalf("SACK annotation wrong: %+v", pkt.SACK[:pkt.NSack])
	}
	if !pkt.HasEcho || pkt.EchoTS != 3*time.Millisecond {
		t.Fatalf("echo annotation wrong: has=%v ts=%v", pkt.HasEcho, pkt.EchoTS)
	}

	// The frame itself must strictly decode to the same values.
	var seg wire.Segment
	if _, err := wire.DecodeSegment(pkt.Frame(), &seg); err != nil {
		t.Fatalf("captured frame does not decode: %v", err)
	}
	if seg.Ack != 2896 || seg.NSack != 2 || seg.Sack[0].Start != 8*1448 {
		t.Fatalf("wire copy diverges from annotation: %+v", seg)
	}
}

// TestSendDeliverAllocsZero gates the backend hot path: once the pool
// and link rings are warm, a full send→encode→link→decode→deliver
// cycle must not allocate.
func TestSendDeliverAllocsZero(t *testing.T) {
	sim := netsim.NewSimulator()
	if sequestering(sim) {
		t.Skip("sussdebug: pool sequesters, steady state allocates by design")
	}
	p := testPath(sim)
	snd := simbackend.New(sim, p.Sender, simbackend.NewDemux(p.Sender), p.Receiver.ID(), 1)
	rcv := simbackend.New(sim, p.Receiver, simbackend.NewDemux(p.Receiver), p.Sender.ID(), 1)
	delivered := 0
	rcv.SetHandler(func(seg *wire.Segment, _ int) { delivered++ })

	var seg wire.Segment
	var seq uint32
	cycle := func() {
		seg = wire.Segment{
			Seq: seq, Flags: wire.FlagACK | wire.FlagPSH, Window: 65535,
			HasTS: true, TSVal: wire.WrapTS(sim.Now()), PayloadLen: 1448,
		}
		seq += 1448
		snd.Send(&seg, wire.SendMeta{WireSize: 1500})
		sim.RunAll()
	}
	for i := 0; i < 64; i++ { // warm pool, rings, wheel
		cycle()
	}
	allocs := testing.AllocsPerRun(500, cycle)
	if allocs > 0 {
		t.Errorf("send/deliver cycle allocates %.1f allocs/op, want 0", allocs)
	}
	if delivered < 64 {
		t.Fatalf("delivered = %d", delivered)
	}
}
