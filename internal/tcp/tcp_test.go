package tcp

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"suss/internal/cc"
	"suss/internal/netem"
	"suss/internal/netsim"
	"suss/internal/obs"
	"suss/internal/wire"
)

// dropIf is a wire-loss stage for a link's impairment pipeline: it
// erases the packets its func picks.
type dropIf func(*netsim.Packet) bool

func (d dropIf) Judge(_ time.Duration, p *netsim.Packet) netsim.ImpairVerdict {
	if d(p) {
		return netsim.ImpairVerdict{Drop: true, Cause: obs.DropErasure}
	}
	return netsim.ImpairVerdict{}
}

// fixedCC is a window-only stub controller for exercising the
// transport in isolation.
type fixedCC struct {
	cwnd        int64
	pace        float64
	losses      int
	rtos        int
	acked       int64
	halveOnLoss bool
}

func (f *fixedCC) OnPacketSent(time.Duration, int, int64, bool) {}
func (f *fixedCC) OnAck(ev cc.AckEvent)                         { f.acked += int64(ev.AckedBytes) }
func (f *fixedCC) OnRTO(time.Duration)                          { f.rtos++ }
func (f *fixedCC) CwndBytes() int64                             { return f.cwnd }
func (f *fixedCC) PacingRate() float64                          { return f.pace }
func (f *fixedCC) InSlowStart() bool                            { return false }
func (f *fixedCC) OnLoss(cc.LossEvent) {
	f.losses++
	if f.halveOnLoss {
		f.cwnd /= 2
		if f.cwnd < 2*1448 {
			f.cwnd = 2 * 1448
		}
	}
}

func newTestPath(sim *netsim.Simulator, rate float64, owd time.Duration, queueBytes int) *netsim.Path {
	return netsim.NewPath(sim, netsim.PathSpec{Forward: []netsim.LinkConfig{
		{Name: "core", Rate: 1e9, Delay: owd / 2, QueueBytes: 16 << 20},
		{Name: "bneck", Rate: rate, Delay: owd / 2, QueueBytes: queueBytes},
	}})
}

func runFlow(t *testing.T, size int64, rate float64, owd time.Duration, queueBytes int, ctrl cc.Controller) (*Flow, *netsim.Simulator, *netsim.Path) {
	t.Helper()
	sim := netsim.NewSimulator()
	p := newTestPath(sim, rate, owd, queueBytes)
	cfg := DefaultConfig()
	f := NewFlow(sim, cfg, 1, p.Sender, NewDemux(p.Sender), p.Receiver, NewDemux(p.Receiver), size, ctrl)
	f.StartAt(sim, 0)
	sim.Run(5 * time.Minute)
	return f, sim, p
}

func TestFlowCompletesCleanPath(t *testing.T) {
	ctrl := &fixedCC{cwnd: 64 * 1448}
	size := int64(2 << 20)
	f, _, p := runFlow(t, size, 1e8, 50*time.Millisecond, 1<<20, ctrl)
	if !f.Done() {
		t.Fatal("flow did not complete")
	}
	if f.Receiver.Received() != size {
		t.Errorf("received %d, want %d", f.Receiver.Received(), size)
	}
	if got := f.Sender.Stats().Retransmissions; got != 0 {
		t.Errorf("retransmissions on clean path: %d", got)
	}
	if ctrl.losses != 0 {
		t.Errorf("spurious loss events: %d", ctrl.losses)
	}
	if drops := p.Fwd[1].Stats().DroppedPackets; drops != 0 {
		t.Errorf("unexpected drops: %d", drops)
	}
	if f.Sender.Delivered() != size {
		t.Errorf("delivered %d, want %d", f.Sender.Delivered(), size)
	}
}

func TestFlowFCTMatchesTheory(t *testing.T) {
	// With a huge window, a 1 MB transfer over 100 Mbps / 50 ms OWD
	// should take ≈ OWD + size/rate ≈ 50ms + 87ms ≈ 137 ms at the
	// receiver.
	ctrl := &fixedCC{cwnd: 4 << 20}
	size := int64(1 << 20)
	f, _, _ := runFlow(t, size, 1e8, 50*time.Millisecond, 8<<20, ctrl)
	if !f.Done() {
		t.Fatal("flow did not complete")
	}
	fct := f.FCT()
	wire := float64(size) * 1.04 * 8 / 1e8 // ~4% header overhead
	want := 50*time.Millisecond + time.Duration(wire*float64(time.Second))
	if fct < want-5*time.Millisecond || fct > want+20*time.Millisecond {
		t.Errorf("FCT = %v, want ≈%v", fct, want)
	}
}

func TestRTTEstimate(t *testing.T) {
	ctrl := &fixedCC{cwnd: 32 * 1448}
	f, _, _ := runFlow(t, 512<<10, 1e8, 40*time.Millisecond, 4<<20, ctrl)
	if !f.Done() {
		t.Fatal("flow did not complete")
	}
	min := f.Sender.MinRTT()
	if min < 80*time.Millisecond || min > 85*time.Millisecond {
		t.Errorf("minRTT = %v, want ≈80ms", min)
	}
	if f.Sender.SRTT() < 80*time.Millisecond {
		t.Errorf("SRTT = %v below propagation", f.Sender.SRTT())
	}
}

func TestLossRecoveryFastRetransmit(t *testing.T) {
	// Tight buffer at 10 Mbps forces tail drops under a large fixed
	// window; SACK recovery must still deliver everything.
	ctrl := &fixedCC{cwnd: 256 * 1448, halveOnLoss: true}
	size := int64(2 << 20)
	f, _, p := runFlow(t, size, 1e7, 20*time.Millisecond, 32<<10, ctrl)
	if !f.Done() {
		t.Fatal("flow did not complete despite SACK recovery")
	}
	if f.Receiver.Received() != size {
		t.Errorf("received %d, want %d", f.Receiver.Received(), size)
	}
	if p.Fwd[1].Stats().DroppedPackets == 0 {
		t.Fatal("test needs drops to be meaningful")
	}
	st := f.Sender.Stats()
	if st.Retransmissions == 0 {
		t.Error("expected fast retransmissions")
	}
	if ctrl.losses == 0 {
		t.Error("controller never told about loss")
	}
	if ctrl.losses > st.LossEvents {
		t.Errorf("OnLoss called %d times for %d loss events", ctrl.losses, st.LossEvents)
	}
}

func TestRTORecovery(t *testing.T) {
	// Drop every data packet in a 300 ms blackout window: dupacks dry
	// up entirely, so only the RTO can recover.
	sim := netsim.NewSimulator()
	blackout := func(pkt *netsim.Packet) bool {
		now := sim.Now()
		return pkt.Kind == netsim.Data && now > 200*time.Millisecond && now < 500*time.Millisecond
	}
	p := netsim.NewPath(sim, netsim.PathSpec{Forward: []netsim.LinkConfig{
		{Name: "core", Rate: 1e9, Delay: 10 * time.Millisecond, QueueBytes: 16 << 20},
		{Name: "bneck", Rate: 1e7, Delay: 10 * time.Millisecond, QueueBytes: 1 << 20, Impair: netsim.Impairments{dropIf(blackout)}},
	}})
	cfg := DefaultConfig()
	ctrl := &fixedCC{cwnd: 64 * 1448}
	f := NewFlow(sim, cfg, 1, p.Sender, NewDemux(p.Sender), p.Receiver, NewDemux(p.Receiver), 4<<20, ctrl)
	f.StartAt(sim, 0)
	sim.Run(5 * time.Minute)
	if !f.Done() {
		t.Fatal("flow did not survive blackout")
	}
	if f.Sender.Stats().RTOs == 0 {
		t.Error("expected at least one RTO")
	}
	if ctrl.rtos == 0 {
		t.Error("controller never told about RTO")
	}
}

func TestPacingSpacesSends(t *testing.T) {
	// 10 Mbps pacing on a 1 Gbps path: send gaps must be ≈1.2 ms per
	// 1500 B frame, far above the serialization time.
	sim := netsim.NewSimulator()
	p := newTestPath(sim, 1e9, 10*time.Millisecond, 16<<20)
	cfg := DefaultConfig()
	ctrl := &fixedCC{cwnd: 1 << 20, pace: 1e7}
	f := NewFlow(sim, cfg, 1, p.Sender, NewDemux(p.Sender), p.Receiver, NewDemux(p.Receiver), 256<<10, ctrl)
	var sendTimes []time.Duration
	f.Receiver.OnData = func(now time.Duration, seg *wire.Segment) {
		sendTimes = append(sendTimes, wire.UnwrapTS(now, seg.TSVal))
	}
	f.StartAt(sim, 0)
	sim.Run(time.Minute)
	if !f.Done() {
		t.Fatal("flow did not complete")
	}
	wantGap := time.Duration(1500 * 8 * float64(time.Second) / 1e7)
	for i := 1; i < len(sendTimes); i++ {
		gap := sendTimes[i] - sendTimes[i-1]
		if gap < wantGap-time.Microsecond {
			t.Fatalf("send gap %v < pacing gap %v at %d", gap, wantGap, i)
		}
	}
}

func TestDelayedAck(t *testing.T) {
	sim := netsim.NewSimulator()
	p := newTestPath(sim, 1e8, 20*time.Millisecond, 4<<20)
	cfg := DefaultConfig()
	cfg.AckEvery = 2
	ctrl := &fixedCC{cwnd: 64 * 1448}
	f := NewFlow(sim, cfg, 1, p.Sender, NewDemux(p.Sender), p.Receiver, NewDemux(p.Receiver), 1<<20, ctrl)
	f.StartAt(sim, 0)
	sim.Run(time.Minute)
	if !f.Done() {
		t.Fatal("flow did not complete with delayed ACKs")
	}
	// Roughly half as many ACKs as data packets crossed the reverse path.
	acks := p.Rev[0].Stats().EnqueuedPackets
	datas := p.Fwd[1].Stats().DeliveredPackets
	if acks > datas*3/4 {
		t.Errorf("acks = %d for %d data packets; delayed ACK not coalescing", acks, datas)
	}
}

func TestReceiverMergeProperty(t *testing.T) {
	// Segments delivered in any order, with duplicates and overlaps,
	// reassemble to exactly the stream, and at every step the range
	// set, the byte count, the cumulative point and the SACK blocks of
	// the ACK agree with a naive set: one bool per MSS of the stream.
	// Most cases are small; every eighth leaves thousands of disjoint
	// ranges, which is where the searches and splices have to be right.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sim := netsim.NewSimulator()
		cfg := DefaultConfig()
		mss := int64(cfg.MSS)
		var ack *wire.Segment
		r := NewReceiver(&diffConn{sim: sim, out: func(a *wire.Segment, _ diffSend) { ack = a }}, cfg, 1, 0)

		units := rng.Intn(100) + 1
		if seed%8 == 0 {
			units = 4000 + rng.Intn(4000)
		}
		size := int64(units)*mss - int64(rng.Intn(int(mss))) // a short final segment
		byteOf := func(u int) int64 { return min(int64(u)*mss, size) }

		// Odd units first, so the big cases hold units/2 disjoint
		// ranges before anything merges; then the rest; then some
		// duplicates and some double-length segments that overlap
		// what is already there.
		var order []int
		for _, parity := range []int{1, 0} {
			half := len(order)
			for u := parity; u < units; u += 2 {
				order = append(order, u)
			}
			rng.Shuffle(len(order)-half, func(i, j int) { order[half+i], order[half+j] = order[half+j], order[half+i] })
		}
		for i := 0; i < units/4; i++ {
			at := rng.Intn(len(order))
			order = append(order[:at+1], order[at:]...)
			order[at] = rng.Intn(units)
		}

		have := make([]bool, units)
		rangeOf := func(u int) sackRange { // the naive containing()
			lo, hi := u, u+1
			for lo > 0 && have[lo-1] {
				lo--
			}
			for hi < units && have[hi] {
				hi++
			}
			return sackRange{Start: byteOf(lo), End: byteOf(hi)}
		}
		var recent []sackRange // newest first, as RFC 2018 orders blocks
		var received int64
		cum := 0
		for step, u := range order {
			n := 1 + rng.Intn(2)
			if u+n > units {
				n = 1
			}
			start, end := byteOf(u), byteOf(u+n)
			r.Handle(&wire.Segment{
				Flags: wire.FlagACK | wire.FlagPSH, Window: 65535,
				Seq: uint32(start), PayloadLen: int(end - start),
			}, int(end-start)+cfg.HeaderBytes)

			for i := u; i < u+n; i++ {
				if !have[i] {
					have[i] = true
					received += byteOf(i+1) - byteOf(i)
				}
			}
			for cum < units && have[cum] {
				cum++
			}
			if r.Received() != received || r.CumAck() != byteOf(cum) {
				t.Logf("seed %d step %d: received %d cum %d, naive set says %d and %d", seed, step, r.Received(), r.CumAck(), received, byteOf(cum))
				return false
			}

			// AckEvery is 1, so each arrival is ACKed at once. The
			// ACK's blocks: the ranges of the
			// most recently touched segments, newest first, distinct,
			// above the cumulative point, at most MaxSack.
			recent = append([]sackRange{{Start: start, End: end}}, recent...)
			recent = recent[:min(len(recent), maxRecentSacks)]
			var want []wire.SackBlock
			for _, s := range recent {
				g := rangeOf(int(s.Start / mss))
				b := wire.SackBlock{Start: uint32(g.Start), End: uint32(g.End)}
				if g.End > byteOf(cum) && !slices.Contains(want, b) && len(want) < maxSack {
					want = append(want, b)
				}
			}
			if ack == nil || int64(ack.Ack) != byteOf(cum) || !slices.Equal(ack.SackBlocks(), want) {
				t.Logf("seed %d step %d: ACK %+v, want cum %d blocks %v", seed, step, ack, byteOf(cum), want)
				return false
			}
			ack = nil

			if step%64 != 0 && step != len(order)-1 {
				continue
			}
			var model []sackRange
			for i := 0; i < units; i++ {
				if have[i] && (i == 0 || !have[i-1]) {
					model = append(model, rangeOf(i))
				}
			}
			if !slices.Equal(r.ranges.view(), model) {
				t.Logf("seed %d step %d: range set %v, naive set %v", seed, step, r.ranges.view(), model)
				return false
			}
		}
		return r.CumAck() == size && r.Received() == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: under random loss, flows always complete and the receiver
// holds exactly the stream (no corruption, no stall).
func TestFlowSurvivesRandomLossProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lossP := float64(rng.Intn(8)) / 100 // 0–7 %
		sim := netsim.NewSimulator()
		p := netsim.NewPath(sim, netsim.PathSpec{Forward: []netsim.LinkConfig{
			{Name: "core", Rate: 1e9, Delay: 5 * time.Millisecond, QueueBytes: 16 << 20},
			{Name: "bneck", Rate: 2e7, Delay: 5 * time.Millisecond, QueueBytes: 256 << 10,
				Impair: netsim.Impairments{netem.Bernoulli(lossP, rng)}},
		}})
		cfg := DefaultConfig()
		ctrl := &fixedCC{cwnd: 64 * 1448, halveOnLoss: true}
		size := int64(rng.Intn(512)+64) * 1024
		f := NewFlow(sim, cfg, 1, p.Sender, NewDemux(p.Sender), p.Receiver, NewDemux(p.Receiver), size, ctrl)
		f.StartAt(sim, 0)
		sim.Run(10 * time.Minute)
		return f.Done() && f.Receiver.Received() == size && f.Sender.Delivered() == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRTTEstimatorRFC6298(t *testing.T) {
	r := &rttEstimator{minRTO: 200 * time.Millisecond, maxRTO: 60 * time.Second}
	if r.RTO() != time.Second {
		t.Errorf("initial RTO = %v, want 1s", r.RTO())
	}
	r.Update(100 * time.Millisecond)
	if r.SRTT() != 100*time.Millisecond {
		t.Errorf("first SRTT = %v", r.SRTT())
	}
	// RTO = srtt + 4*rttvar = 100 + 200 = 300ms.
	if r.RTO() != 300*time.Millisecond {
		t.Errorf("RTO = %v, want 300ms", r.RTO())
	}
	r.Backoff()
	if r.RTO() != 600*time.Millisecond {
		t.Errorf("backed-off RTO = %v, want 600ms", r.RTO())
	}
	r.Update(100 * time.Millisecond) // sample resets backoff
	if r.RTO() >= 600*time.Millisecond {
		t.Errorf("RTO after sample = %v, backoff not reset", r.RTO())
	}
	// Floor applies to the variance term (Linux-style): RTO ≈
	// srtt + rto_min even when rttvar decays to nothing.
	for i := 0; i < 50; i++ {
		r.Update(time.Millisecond)
	}
	rto := r.RTO()
	if rto < 200*time.Millisecond || rto > 210*time.Millisecond {
		t.Errorf("floored RTO = %v, want ≈ srtt+200ms ≈ 201ms", rto)
	}
}

func TestSegStart(t *testing.T) {
	if got := segStart(0, 1448); got != 0 {
		t.Errorf("segStart(0) = %d", got)
	}
	if got := segStart(1448*5+7, 1448); got != 1448*5 {
		t.Errorf("segStart mid = %d", got)
	}
}
