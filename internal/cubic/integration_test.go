package cubic_test

import (
	"testing"
	"time"

	"suss/internal/cubic"
	"suss/internal/netsim"
	"suss/internal/tcp"
)

func TestCubicSlowStartOverPath(t *testing.T) {
	sim := netsim.NewSimulator()
	owd := 50 * time.Millisecond
	p := netsim.NewPath(sim, netsim.PathSpec{Forward: []netsim.LinkConfig{
		{Name: "core", Rate: 1e9, Delay: 25 * time.Millisecond, QueueBytes: 16 << 20},
		{Name: "bneck", Rate: 1e8, Delay: 25 * time.Millisecond, QueueBytes: int(1e8 / 8 * 0.1)}, // 1 BDP
	}})
	cfg := tcp.DefaultConfig()
	smux, rmux := tcp.NewDemux(p.Sender), tcp.NewDemux(p.Receiver)
	// Build sender with cubic: the controller needs the sender as env,
	// so create in two steps.
	var ctrl *cubic.Cubic
	f := tcp.NewFlow(sim, cfg, 1, p.Sender, smux, p.Receiver, rmux, 20<<20, nil)
	ctrl = cubic.New(f.Sender, cubic.DefaultOptions())
	f.Sender.SetController(ctrl)

	// Sample cwnd per round during slow start.
	var cwndAt []struct {
		t time.Duration
		w float64
	}
	f.Sender.OnAckTrace = func(now time.Duration, cwnd int64, srtt time.Duration, delivered int64) {
		cwndAt = append(cwndAt, struct {
			t time.Duration
			w float64
		}{now, float64(cwnd) / float64(cfg.MSS)})
	}
	f.StartAt(sim, 0)
	sim.Run(2 * time.Minute)

	if !f.Done() {
		t.Fatal("flow did not complete")
	}
	// Early rounds: cwnd at ~3 RTT should be ≈ 40 segments (10→20→40).
	var wAt3RTT float64
	for _, s := range cwndAt {
		if s.t <= 3*2*owd {
			wAt3RTT = s.w
		}
	}
	if wAt3RTT < 30 || wAt3RTT > 90 {
		t.Errorf("cwnd after ~3 rounds = %v segments, want ≈40-80 (doubling)", wAt3RTT)
	}
	// HyStart or loss must have ended slow start near or below ~1.5 BDP
	// (BDP = 100 Mbps × 100 ms ≈ 863 segments).
	if ctrl.InSlowStart() {
		t.Error("slow start never ended on a 20 MB transfer")
	}

	// Goodput in steady state should approach the bottleneck.
	fct := f.FCT()
	goodput := float64(20<<20) * 8 / fct.Seconds()
	if goodput < 0.5e8 {
		t.Errorf("goodput %.3g bps, want > 50%% of the 100 Mbps bottleneck", goodput)
	}
}

func TestCubicFairnessTwoFlows(t *testing.T) {
	sim := netsim.NewSimulator()
	acc := netsim.LinkConfig{Rate: 1e9, Delay: 5 * time.Millisecond}
	d := netsim.NewDumbbell(sim, netsim.DumbbellSpec{
		Access:     []netsim.LinkConfig{acc, acc},
		Bottleneck: netsim.LinkConfig{Rate: 5e7, Delay: 20 * time.Millisecond, QueueBytes: int(5e7 / 8 * 0.05)},
	})
	cfg := tcp.DefaultConfig()
	var flows []*tcp.Flow
	for i := 0; i < 2; i++ {
		smux, rmux := tcp.NewDemux(d.Servers[i]), tcp.NewDemux(d.Clients[i])
		f := tcp.NewFlow(sim, cfg, netsim.FlowID(i+1), d.Servers[i], smux, d.Clients[i], rmux, 60<<20, nil)
		f.Sender.SetController(cubic.New(f.Sender, cubic.DefaultOptions()))
		f.StartAt(sim, 0)
		flows = append(flows, f)
	}
	// Sample mid-transfer (before either flow can finish) so the
	// goodput denominator is honest.
	sim.Run(15 * time.Second)
	d1 := flows[0].Sender.Delivered()
	d2 := flows[1].Sender.Delivered()
	if d1 == 0 || d2 == 0 {
		t.Fatal("a flow starved completely")
	}
	ratio := float64(d1) / float64(d2)
	if ratio < 0.4 || ratio > 2.5 {
		t.Errorf("two identical CUBIC flows split %d / %d (ratio %.2f), want rough fairness", d1, d2, ratio)
	}
	// Together they should use most of the 50 Mbps over the first 15 s.
	total := float64(d1+d2) * 8 / 15
	if total < 0.7*5e7 {
		t.Errorf("aggregate goodput %.3g bps, want > 70%% of bottleneck", total)
	}
}
