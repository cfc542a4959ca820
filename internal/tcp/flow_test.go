package tcp

import (
	"testing"
	"time"

	"suss/internal/netsim"
	"suss/internal/wire"
	"suss/internal/wire/simbackend"
)

func TestDemuxRoutesMultipleFlows(t *testing.T) {
	sim := netsim.NewSimulator()
	p := newTestPath(sim, 1e8, 20*time.Millisecond, 4<<20)
	smux, rmux := NewDemux(p.Sender), NewDemux(p.Receiver)
	cfg := DefaultConfig()

	var flows []*Flow
	for i := 1; i <= 3; i++ {
		f := NewFlow(sim, cfg, netsim.FlowID(i), p.Sender, smux, p.Receiver, rmux, int64(i)<<18, nil)
		f.Sender.SetController(&fixedCC{cwnd: 32 * 1448})
		f.StartAt(sim, time.Duration(i)*100*time.Millisecond)
		flows = append(flows, f)
	}
	sim.Run(time.Minute)
	for i, f := range flows {
		if !f.Done() {
			t.Fatalf("flow %d did not complete", i+1)
		}
		want := int64(i+1) << 18
		if f.Receiver.Received() != want {
			t.Errorf("flow %d received %d, want %d (cross-flow leakage?)", i+1, f.Receiver.Received(), want)
		}
	}
	// FCTs ordered sanely: later, larger flows finish later.
	if flows[0].Receiver.CompletedAt() >= flows[2].Receiver.CompletedAt() {
		t.Errorf("completion order wrong: %v vs %v", flows[0].Receiver.CompletedAt(), flows[2].Receiver.CompletedAt())
	}
}

func TestDemuxUnregister(t *testing.T) {
	sim := netsim.NewSimulator()
	p := newTestPath(sim, 1e8, 5*time.Millisecond, 1<<20)
	mux := NewDemux(p.Receiver)
	got := 0
	simbackend.New(sim, p.Receiver, mux, p.Sender.ID(), 7).SetHandler(func(*wire.Segment, int) { got++ })
	snd := simbackend.New(sim, p.Sender, NewDemux(p.Sender), p.Receiver.ID(), 7)
	send := func() {
		snd.Send(&wire.Segment{Flags: wire.FlagACK | wire.FlagPSH, PayloadLen: 100}, wire.SendMeta{})
	}
	sim.Schedule(0, send)
	sim.RunAll()
	if got != 1 {
		t.Fatalf("registered flow got %d packets", got)
	}
	mux.Unregister(7)
	sim.Schedule(0, send)
	sim.RunAll() // unregistered: silently dropped, no panic
	if got != 1 {
		t.Fatalf("unregistered flow still receiving: %d", got)
	}
}

func TestSequentialFlowsReusePair(t *testing.T) {
	// The Fig. 16 pattern: flows run back-to-back over the same host
	// pair with distinct IDs.
	sim := netsim.NewSimulator()
	p := newTestPath(sim, 5e7, 10*time.Millisecond, 1<<20)
	smux, rmux := NewDemux(p.Sender), NewDemux(p.Receiver)
	cfg := DefaultConfig()
	f1 := NewFlow(sim, cfg, 1, p.Sender, smux, p.Receiver, rmux, 512<<10, nil)
	f1.Sender.SetController(&fixedCC{cwnd: 64 * 1448})
	f2 := NewFlow(sim, cfg, 2, p.Sender, smux, p.Receiver, rmux, 512<<10, nil)
	f2.Sender.SetController(&fixedCC{cwnd: 64 * 1448})
	f1.StartAt(sim, 0)
	f2.StartAt(sim, 2*time.Second)
	sim.Run(time.Minute)
	if !f1.Done() || !f2.Done() {
		t.Fatal("sequential flows did not both complete")
	}
	if f2.FCT() > f1.FCT()*3/2+50*time.Millisecond {
		t.Errorf("second flow much slower on an idle path: %v vs %v", f2.FCT(), f1.FCT())
	}
}

func TestFlowStartAtSemantics(t *testing.T) {
	sim := netsim.NewSimulator()
	p := newTestPath(sim, 1e8, 10*time.Millisecond, 1<<20)
	f := NewFlow(sim, DefaultConfig(), 1, p.Sender, NewDemux(p.Sender), p.Receiver, NewDemux(p.Receiver), 64<<10, nil)
	f.Sender.SetController(&fixedCC{cwnd: 64 * 1448})
	f.StartAt(sim, 500*time.Millisecond)
	sim.Run(time.Minute)
	if !f.Done() {
		t.Fatal("flow did not complete")
	}
	// CompletedAt is absolute; FCT is relative to the start time.
	if at := f.Receiver.CompletedAt(); at <= 500*time.Millisecond {
		t.Errorf("completed at %v, before the start time", at)
	}
	if f.FCT() >= f.Receiver.CompletedAt() {
		t.Errorf("FCT %v not relative to start (completedAt %v)", f.FCT(), f.Receiver.CompletedAt())
	}
	if f.FCT() <= 0 || f.FCT() > 200*time.Millisecond {
		t.Errorf("FCT %v implausible for 64KB over 100Mbps/20ms", f.FCT())
	}
}
