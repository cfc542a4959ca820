package tcp

import (
	"testing"
	"time"

	"suss/internal/cubic"
	"suss/internal/netem"
	"suss/internal/netsim"
	"suss/internal/obs"
)

// spikeRun captures one jitter-spike flow for the F-RTO comparison.
type spikeRun struct {
	fct      time.Duration
	postCwnd int64 // cwnd at the first ACK after the spike has drained
	stats    SenderStats
	c        *obs.FlowCounters
	ledger   obs.LossLedger
	done     bool
}

// runJitterSpike drives a 1 MB download over a clean 20 Mbit/s, 40 ms
// RTT path with a single 450 ms delay spike injected at t=150 ms: long
// enough to fire the RTO, short enough that the delayed originals (and
// their ACKs, echoing pre-RTO timestamps) come back while the F-RTO
// window is still open. No packet is ever lost, so every
// retransmission is spurious by construction and the receiver's
// duplicate-payload count is the ground truth.
func runJitterSpike(t *testing.T, frto bool) spikeRun {
	t.Helper()
	sim := netsim.NewSimulator()
	p := netsim.NewPath(sim, netsim.PathSpec{Forward: []netsim.LinkConfig{
		{Name: "core", Rate: 1e9, Delay: 10 * time.Millisecond, QueueBytes: 16 << 20},
		{Name: "bneck", Rate: 2e7, Delay: 10 * time.Millisecond, QueueBytes: 4 << 20},
	}})
	cfg := DefaultConfig()
	cfg.FRTO = frto
	f := NewFlow(sim, cfg, 1, p.Sender, NewDemux(p.Sender), p.Receiver, NewDemux(p.Receiver), 1<<20, nil)
	f.Sender.SetController(cubic.New(f.Sender, cubic.DefaultOptions()))

	p.Fwd[1].AttachImpairments(netsim.NewImpairments(&netem.RTTStep{
		Steps: []netem.DelayStep{
			{At: 150 * time.Millisecond, Delta: 450 * time.Millisecond},
			{At: 200 * time.Millisecond, Delta: -450 * time.Millisecond},
		},
	}))

	var postCwnd int64
	f.Sender.OnAckTrace = func(now time.Duration, cwnd int64, _ time.Duration, _ int64) {
		// The delayed cohort lands around t≈620 ms; sample the first
		// cwnd once the path is clean again.
		if postCwnd == 0 && now >= 700*time.Millisecond {
			postCwnd = cwnd
		}
	}

	f.StartAt(sim, 0)
	sim.Run(30 * time.Second)

	return spikeRun{
		fct:      f.FCT(),
		postCwnd: postCwnd,
		stats:    f.Sender.Stats(),
		c:        f.Sender.Counters(),
		ledger:   obs.MakeLedger(f.Sender.Counters(), p.Fwd[0].Counters(), p.Fwd[1].Counters()),
		done:     f.Done(),
	}
}

// TestFRTOUndoesSpuriousRTO pins the F-RTO win on a jitter spike: with
// the detection on, the spurious timeout is undone — the post-spike
// cwnd is strictly higher and the flow finishes strictly sooner than
// the identical run with detection off.
func TestFRTOUndoesSpuriousRTO(t *testing.T) {
	on := runJitterSpike(t, true)
	off := runJitterSpike(t, false)

	if !on.done || !off.done {
		t.Fatalf("flows did not complete: frto=%v, no-frto=%v", on.done, off.done)
	}
	if on.stats.RTOs == 0 {
		t.Fatal("the spike did not fire an RTO; the scenario is not testing anything")
	}
	if on.stats.SpuriousRTOs == 0 {
		t.Error("F-RTO detected no spurious timeout on a lossless spike")
	}
	if off.stats.SpuriousRTOs != 0 {
		t.Errorf("SpuriousRTOs = %d with FRTO disabled, want 0", off.stats.SpuriousRTOs)
	}
	if on.ledger.SpuriousRTOUndos == 0 {
		t.Error("ledger shows no RTO undo")
	}
	if on.fct >= off.fct {
		t.Errorf("FCT with F-RTO (%v) not strictly better than without (%v)", on.fct, off.fct)
	}
	if on.postCwnd <= off.postCwnd {
		t.Errorf("post-spike cwnd with F-RTO (%d) not strictly higher than without (%d)",
			on.postCwnd, off.postCwnd)
	}

	// Receiver ground truth: nothing was lost and nothing duplicated on
	// the path, so every retransmission — and only retransmissions —
	// arrives as duplicate payload, and the sender's spurious-retransmit
	// accounting must agree with it.
	for name, r := range map[string]spikeRun{"frto": on, "no-frto": off} {
		if r.ledger.PathCorrupt+r.ledger.PathOutage+r.ledger.PathDuplicates != 0 {
			t.Fatalf("%s: clean path recorded impairment drops", name)
		}
		if r.c.RcvDupSegs != r.c.SegsRetrans {
			t.Errorf("%s: receiver saw %d dup segments, sender retransmitted %d — some retransmission was not spurious",
				name, r.c.RcvDupSegs, r.c.SegsRetrans)
		}
		if bad := r.ledger.Check(); len(bad) > 0 {
			t.Errorf("%s: ledger violations: %v", name, bad)
		}
	}
}

// TestReceiverReneging pins the receiver fault mode + sender repair in
// isolation: a receiver that discards its above-cumulative SACKed data
// forces the sender to re-mark and retransmit it, and the flow still
// completes with a balanced ledger.
func TestReceiverReneging(t *testing.T) {
	sim := netsim.NewSimulator()
	p := netsim.NewPath(sim, netsim.PathSpec{Forward: []netsim.LinkConfig{
		{Name: "core", Rate: 1e9, Delay: 10 * time.Millisecond, QueueBytes: 16 << 20},
		// Shallow queue so congestion drops create SACK holes for the
		// receiver to renege on.
		{Name: "bneck", Rate: 5e7, Delay: 10 * time.Millisecond, QueueBytes: 64 << 10},
	}})
	f := NewFlow(sim, DefaultConfig(), 1, p.Sender, NewDemux(p.Sender), p.Receiver, NewDemux(p.Receiver), 2<<20, nil)
	f.Sender.SetController(cubic.New(f.Sender, cubic.DefaultOptions()))
	f.Receiver.EnableReneging(25*time.Millisecond, 1.0, nil)
	f.StartAt(sim, 0)
	sim.Run(time.Minute)

	if !f.Done() {
		t.Fatal("flow did not complete under a reneging receiver")
	}
	c := f.Sender.Counters()
	if c.RcvRenegeEvents == 0 {
		t.Fatal("receiver never reneged; the fault mode did not engage")
	}
	if c.SackRenegings == 0 {
		t.Error("sender never detected the reneging")
	}
	if c.RetransReneg == 0 {
		t.Error("no segments were retransmitted under the reneging cause")
	}
	led := obs.MakeLedger(c)
	if bad := led.Check(); len(bad) > 0 {
		t.Errorf("ledger violations: %v", bad)
	}
}
