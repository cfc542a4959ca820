package bbr_test

import (
	"testing"
	"time"

	"suss/internal/bbr"
	"suss/internal/cubic"
	"suss/internal/netsim"
	"suss/internal/obs"
	"suss/internal/tcp"
)

// everyNth erases every nth data packet: deterministic random-like
// loss.
type everyNth struct{ n, seen int }

func (e *everyNth) Judge(_ time.Duration, p *netsim.Packet) netsim.ImpairVerdict {
	if p.Kind != netsim.Data {
		return netsim.ImpairVerdict{}
	}
	e.seen++
	if e.seen%e.n == 0 {
		return netsim.ImpairVerdict{Drop: true, Cause: obs.DropErasure}
	}
	return netsim.ImpairVerdict{}
}

func runBBRFlow(t *testing.T, size int64, rate float64, owd time.Duration, bufBDP float64, lossP float64, mk func(f *tcp.Flow)) (*tcp.Flow, *netsim.Path) {
	t.Helper()
	sim := netsim.NewSimulator()
	rtt := 2 * owd
	bdp := rate / 8 * rtt.Seconds()
	var loss netsim.Impairments
	if lossP > 0 {
		loss = netsim.Impairments{&everyNth{n: int(1 / lossP)}}
	}
	p := netsim.NewPath(sim, netsim.PathSpec{Forward: []netsim.LinkConfig{
		{Name: "core", Rate: 1e9, Delay: owd / 2, QueueBytes: 64 << 20},
		{Name: "bneck", Rate: rate, Delay: owd - owd/2, QueueBytes: int(bufBDP * bdp), Impair: loss},
	}})
	f := tcp.NewFlow(sim, tcp.DefaultConfig(), 1, p.Sender, tcp.NewDemux(p.Sender), p.Receiver, tcp.NewDemux(p.Receiver), size, nil)
	mk(f)
	f.StartAt(sim, 0)
	sim.Run(10 * time.Minute)
	return f, p
}

func TestBBRFillsPipe(t *testing.T) {
	f, _ := runBBRFlow(t, 30<<20, 1e8, 50*time.Millisecond, 1, 0, func(f *tcp.Flow) {
		f.Sender.SetController(bbr.New(f.Sender, bbr.DefaultOptions()))
	})
	if !f.Done() {
		t.Fatal("flow did not complete")
	}
	goodput := float64(30<<20) * 8 / f.FCT().Seconds()
	if goodput < 0.7e8 {
		t.Errorf("BBR goodput %.3g bps, want >70%% of 100 Mbps", goodput)
	}
	b := f.Sender.Controller().(*bbr.BBR)
	if b.BtlBw() < 0.7e8 || b.BtlBw() > 1.3e8 {
		t.Errorf("BtlBw estimate %.3g, want ≈1e8", b.BtlBw())
	}
	if b.State() == "STARTUP" {
		t.Error("still in STARTUP after 30 MB")
	}
}

// The paper's Fig. 2 rationale: BBR tolerates random loss that would
// collapse CUBIC's window.
func TestBBRLossToleranceVsCubic(t *testing.T) {
	const lossP = 0.01
	size := int64(20 << 20)
	fB, _ := runBBRFlow(t, size, 1e8, 50*time.Millisecond, 1, lossP, func(f *tcp.Flow) {
		f.Sender.SetController(bbr.New(f.Sender, bbr.DefaultOptions()))
	})
	fC, _ := runBBRFlow(t, size, 1e8, 50*time.Millisecond, 1, lossP, func(f *tcp.Flow) {
		f.Sender.SetController(cubic.New(f.Sender, cubic.DefaultOptions()))
	})
	if !fB.Done() || !fC.Done() {
		t.Fatal("flows did not complete")
	}
	t.Logf("1%% loss, 20MB: bbr=%v cubic=%v", fB.FCT(), fC.FCT())
	if fB.FCT() >= fC.FCT() {
		t.Errorf("BBR (%v) should beat CUBIC (%v) under 1%% random loss", fB.FCT(), fC.FCT())
	}
}

func TestBBRStartupFasterRampThanCubicSS(t *testing.T) {
	// BBR's 2.885 gain grows inflight a bit faster than doubling; its
	// 1 MB FCT on a fat path should be in the same ballpark as CUBIC
	// (both ~few RTTs). Sanity, not superiority: paper Fig. 1 shows
	// both underutilize early.
	size := int64(1 << 20)
	fB, _ := runBBRFlow(t, size, 1e8, 75*time.Millisecond, 1, 0, func(f *tcp.Flow) {
		f.Sender.SetController(bbr.New(f.Sender, bbr.DefaultOptions()))
	})
	if !fB.Done() {
		t.Fatal("flow did not complete")
	}
	if fB.FCT() > 2*time.Second {
		t.Errorf("BBR 1MB FCT = %v, startup is broken", fB.FCT())
	}
}

func TestBBR2CompletesUnderLoss(t *testing.T) {
	f, _ := runBBRFlow(t, 8<<20, 5e7, 25*time.Millisecond, 0.5, 0.005, func(f *tcp.Flow) {
		f.Sender.SetController(bbr.New(f.Sender, bbr.V2Options()))
	})
	if !f.Done() {
		t.Fatal("BBRv2 flow did not complete")
	}
	if f.Receiver.Received() != 8<<20 {
		t.Errorf("received %d", f.Receiver.Received())
	}
}
