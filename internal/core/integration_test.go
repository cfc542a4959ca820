package core_test

import (
	"testing"
	"time"

	"suss/internal/core"
	"suss/internal/cubic"
	"suss/internal/netsim"
	"suss/internal/tcp"
)

// buildPath wires the standard large-BDP test path: 1 Gbps core,
// bottleneck last link, symmetric one-way delay owd.
func buildPath(sim *netsim.Simulator, rate float64, owd time.Duration, bufBDP float64) *netsim.Path {
	rtt := 2 * owd
	bdp := rate / 8 * rtt.Seconds()
	return netsim.NewPath(sim, netsim.PathSpec{Forward: []netsim.LinkConfig{
		{Name: "core", Rate: 1e9, Delay: owd / 2, QueueBytes: 64 << 20},
		{Name: "bneck", Rate: rate, Delay: owd - owd/2, QueueBytes: int(bufBDP * bdp)},
	}})
}

// runOnce transfers size bytes with the given controller flavor and
// returns the flow and the path.
func runOnce(size int64, rate float64, owd time.Duration, bufBDP float64, withSUSS bool) (*tcp.Flow, *netsim.Path) {
	sim := netsim.NewSimulator()
	p := buildPath(sim, rate, owd, bufBDP)
	cfg := tcp.DefaultConfig()
	f := tcp.NewFlow(sim, cfg, 1, p.Sender, tcp.NewDemux(p.Sender), p.Receiver, tcp.NewDemux(p.Receiver), size, nil)
	if withSUSS {
		f.Sender.SetController(core.New(f.Sender, core.DefaultOptions()))
	} else {
		f.Sender.SetController(cubic.New(f.Sender, cubic.DefaultOptions()))
	}
	f.StartAt(sim, 0)
	sim.Run(10 * time.Minute)
	return f, p
}

func TestSussAcceleratesSlowStart(t *testing.T) {
	// 100 Mbps, 100 ms RTT, 1 BDP buffer, 2 MB flow: the paper's
	// headline small-flow regime (>20% FCT improvement).
	size := int64(2 << 20)
	fSuss, _ := runOnce(size, 1e8, 50*time.Millisecond, 1, true)
	fCubic, _ := runOnce(size, 1e8, 50*time.Millisecond, 1, false)
	if !fSuss.Done() || !fCubic.Done() {
		t.Fatal("flows did not complete")
	}
	s := fSuss.Sender.Controller().(*core.Suss)
	if s.Stats().AcceleratedRounds == 0 {
		t.Fatalf("SUSS never accelerated: stats=%+v", s.Stats())
	}
	if s.Stats().MaxG < 4 {
		t.Errorf("max G = %d, want ≥4", s.Stats().MaxG)
	}
	imp := 1 - fSuss.FCT().Seconds()/fCubic.FCT().Seconds()
	t.Logf("FCT cubic=%v suss=%v improvement=%.1f%% G history=%v",
		fCubic.FCT(), fSuss.FCT(), imp*100, s.Stats().GHistory)
	if imp < 0.15 {
		t.Errorf("FCT improvement = %.1f%%, want ≥15%% (paper: >20%%)", imp*100)
	}
}

func TestSussNoLossOnCleanPath(t *testing.T) {
	// Acceleration must not by itself cause drops when the buffer is
	// 1 BDP: pacing spreads the red packets.
	f, p := runOnce(4<<20, 1e8, 50*time.Millisecond, 1, true)
	if !f.Done() {
		t.Fatal("flow did not complete")
	}
	if rt := f.Sender.Stats().Retransmissions; rt != 0 {
		t.Errorf("retransmissions = %d on a 1-BDP clean path", rt)
	}
	if drops := p.Fwd[1].Stats().DroppedPackets; drops != 0 {
		t.Errorf("bottleneck drops = %d", drops)
	}
}

func TestSussMatchesCubicOnLargeFlow(t *testing.T) {
	// Fig. 13: SUSS must not change large-flow FCT measurably.
	size := int64(40 << 20)
	fSuss, _ := runOnce(size, 1e8, 50*time.Millisecond, 1, true)
	fCubic, _ := runOnce(size, 1e8, 50*time.Millisecond, 1, false)
	if !fSuss.Done() || !fCubic.Done() {
		t.Fatal("flows did not complete")
	}
	rel := fSuss.FCT().Seconds() / fCubic.FCT().Seconds()
	t.Logf("large flow: cubic=%v suss=%v", fCubic.FCT(), fSuss.FCT())
	if rel > 1.02 {
		t.Errorf("SUSS made a large flow slower: ratio %.3f", rel)
	}
	if rel < 0.80 {
		t.Errorf("suspiciously large gain on a large flow: ratio %.3f", rel)
	}
}

func TestSussSmallRTTNoHarm(t *testing.T) {
	// On a small-BDP path slow start finishes in a few rounds; SUSS
	// must do no harm.
	size := int64(1 << 20)
	fSuss, _ := runOnce(size, 5e7, 5*time.Millisecond, 1, true)
	fCubic, _ := runOnce(size, 5e7, 5*time.Millisecond, 1, false)
	if !fSuss.Done() || !fCubic.Done() {
		t.Fatal("flows did not complete")
	}
	if fSuss.FCT() > fCubic.FCT()*11/10 {
		t.Errorf("SUSS hurt a short-RTT flow: %v vs %v", fSuss.FCT(), fCubic.FCT())
	}
}

func TestSussExitsSlowStartNearCubicExit(t *testing.T) {
	// Fig. 9: exponential growth must end at roughly the same cwnd
	// with SUSS on and off (fairness argument §6.4).
	size := int64(30 << 20)
	fSuss, _ := runOnce(size, 1e8, 50*time.Millisecond, 1.5, true)
	fCubic, _ := runOnce(size, 1e8, 50*time.Millisecond, 1.5, false)
	s := fSuss.Sender.Controller().(*core.Suss)
	c := fCubic.Sender.Controller().(*cubic.Cubic)
	sExit := s.SsthreshSegments()
	cExit := c.SsthreshSegments()
	t.Logf("ssthresh: suss=%v cubic=%v", sExit, cExit)
	ratio := sExit / cExit
	if ratio < 0.4 || ratio > 2.5 {
		t.Errorf("slow-start exit windows differ wildly: suss=%.0f cubic=%.0f", sExit, cExit)
	}
}

func TestSussPacingReducesBurstQueue(t *testing.T) {
	// The pacing period should keep the bottleneck queue lower than
	// the clocking-only ablation during slow start.
	run := func(noPacing bool) int {
		sim := netsim.NewSimulator()
		p := buildPath(sim, 1e8, 50*time.Millisecond, 2)
		cfg := tcp.DefaultConfig()
		opt := core.DefaultOptions()
		opt.NoPacing = noPacing
		f := tcp.NewFlow(sim, cfg, 1, p.Sender, tcp.NewDemux(p.Sender), p.Receiver, tcp.NewDemux(p.Receiver), 4<<20, nil)
		f.Sender.SetController(core.New(f.Sender, opt))
		f.StartAt(sim, 0)
		sim.Run(10 * time.Minute)
		if !f.Done() {
			t.Fatal("flow did not complete")
		}
		return p.Fwd[1].Stats().MaxQueueBytes
	}
	paced := run(false)
	burst := run(true)
	t.Logf("max queue: paced=%d burst=%d", paced, burst)
	if paced > burst {
		t.Errorf("pacing increased peak queue: %d > %d", paced, burst)
	}
}

func TestSussLossDisablesAcceleration(t *testing.T) {
	// A shallow buffer forces loss during slow start; SUSS must abort
	// pacing, fall back to CUBIC, and still complete.
	f, p := runOnce(8<<20, 5e7, 50*time.Millisecond, 0.2, true)
	if !f.Done() {
		t.Fatal("flow did not complete after slow-start loss")
	}
	if p.Fwd[1].Stats().DroppedPackets == 0 {
		t.Skip("expected drops with a 0.2 BDP buffer; topology too forgiving")
	}
	s := f.Sender.Controller().(*core.Suss)
	if s.PacingActive() {
		t.Error("pacing still active after loss")
	}
	if s.InSlowStart() {
		t.Error("still in slow start after loss")
	}
}

func TestSussKmax2AcceleratesHarder(t *testing.T) {
	// Appendix A: with kmax=2 and a very fat path, G=8 rounds appear.
	sim := netsim.NewSimulator()
	p := buildPath(sim, 5e8, 100*time.Millisecond, 1)
	cfg := tcp.DefaultConfig()
	opt := core.DefaultOptions()
	opt.Kmax = 2
	f := tcp.NewFlow(sim, cfg, 1, p.Sender, tcp.NewDemux(p.Sender), p.Receiver, tcp.NewDemux(p.Receiver), 16<<20, nil)
	f.Sender.SetController(core.New(f.Sender, opt))
	f.StartAt(sim, 0)
	sim.Run(10 * time.Minute)
	if !f.Done() {
		t.Fatal("flow did not complete")
	}
	s := f.Sender.Controller().(*core.Suss)
	if s.Stats().MaxG < 8 {
		t.Errorf("kmax=2 on a 500 Mbps × 200 ms path: max G = %d, want 8; history %v",
			s.Stats().MaxG, s.Stats().GHistory)
	}
}

func TestSussWorksWithDelayedAcks(t *testing.T) {
	// SUSS is sender-side only (§6.1: "no changes need to be applied at
	// the client side"): it must still accelerate when the receiver
	// coalesces ACKs (classic delayed ACK, every 2nd packet).
	run := func(withSuss bool) (*tcp.Flow, *core.Suss) {
		sim := netsim.NewSimulator()
		p := buildPath(sim, 1e8, 50*time.Millisecond, 1)
		cfg := tcp.DefaultConfig()
		cfg.AckEvery = 2
		f := tcp.NewFlow(sim, cfg, 1, p.Sender, tcp.NewDemux(p.Sender), p.Receiver, tcp.NewDemux(p.Receiver), 2<<20, nil)
		var s *core.Suss
		if withSuss {
			s = core.New(f.Sender, core.DefaultOptions())
			f.Sender.SetController(s)
		} else {
			f.Sender.SetController(cubic.New(f.Sender, cubic.DefaultOptions()))
		}
		f.StartAt(sim, 0)
		sim.Run(10 * time.Minute)
		if !f.Done() {
			t.Fatal("flow did not complete under delayed ACKs")
		}
		return f, s
	}
	fSuss, s := run(true)
	fCubic, _ := run(false)
	if s.Stats().AcceleratedRounds == 0 {
		t.Fatalf("SUSS never accelerated under delayed ACKs: %+v", s.Stats())
	}
	imp := 1 - fSuss.FCT().Seconds()/fCubic.FCT().Seconds()
	t.Logf("delayed ACKs: cubic=%v suss=%v improvement=%.1f%%", fCubic.FCT(), fSuss.FCT(), 100*imp)
	if imp < 0.10 {
		t.Errorf("improvement %.1f%% under delayed ACKs, want ≥10%%", 100*imp)
	}
}
