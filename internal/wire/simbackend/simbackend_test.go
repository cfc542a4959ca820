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

// TestAnnotationMirrorsWire checks what a simulated packet carries
// beside its frame: an ACK's kind and modeled size, and a data
// segment's sequence number unwrapped to 64 bits, which the link's
// drop and duplicate events record. Two consecutive segments whose
// 32-bit sequence numbers straddle 2^32 must stay one MSS apart, and
// each frame must still decode to the 32-bit value that was sent.
func TestAnnotationMirrorsWire(t *testing.T) {
	sim := netsim.NewSimulator()
	p := testPath(sim)
	var pkts []*netsim.Packet
	p.Receiver.SetHandler(func(pkt *netsim.Packet) { pkts = append(pkts, pkt) })
	snd := simbackend.New(sim, p.Sender, simbackend.NewDemux(p.Sender), p.Receiver.ID(), 1)

	const mss, top = 1448, 1<<32 - 1000
	// The first segment moves the unwrap anchor past 2^31, as half of
	// a 4 GB transfer would; the next two straddle 2^32.
	seqs := []uint32{1<<31 - 1, top, top + mss - 1<<32}
	sim.Schedule(0, func() {
		snd.Send(&wire.Segment{Flags: wire.FlagACK, Window: 65535, Ack: 2896}, wire.SendMeta{WireSize: 60})
		for _, seq := range seqs {
			snd.Send(&wire.Segment{
				Seq: seq, Flags: wire.FlagACK | wire.FlagPSH, Window: 65535, PayloadLen: mss,
			}, wire.SendMeta{WireSize: 1500})
		}
	})
	sim.RunAll()

	if len(pkts) != 1+len(seqs) {
		t.Fatalf("pkts = %d, want %d", len(pkts), 1+len(seqs))
	}
	defer func() {
		for _, pkt := range pkts {
			pkt.Release()
		}
	}()
	if ack := pkts[0]; ack.Kind != netsim.Ack || ack.Size != 60 {
		t.Fatalf("ACK arrived as kind=%v size=%d, want ack, 60", ack.Kind, ack.Size)
	}
	data := pkts[1:]
	for i, pkt := range data {
		var seg wire.Segment
		if _, err := wire.DecodeSegment(pkt.Frame(), &seg); err != nil {
			t.Fatalf("data frame %d does not decode: %v", i, err)
		}
		if pkt.Kind != netsim.Data || pkt.Size != 1500 || seg.Seq != seqs[i] {
			t.Fatalf("data %d: kind=%v size=%d wire seq %#x, want data, 1500, %#x", i, pkt.Kind, pkt.Size, seg.Seq, seqs[i])
		}
	}
	if lo, hi := data[1].Seq, data[2].Seq; lo != top || hi-lo != mss {
		t.Fatalf("64-bit Seqs across the 2^32 wrap: %d then %d, want %d then one MSS more", lo, hi, int64(top))
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
