package tcp

import (
	"math/rand"
	"testing"
	"time"

	"suss/internal/netem"
	"suss/internal/netsim"
)

// TestPacketPoolOwnershipLossyDumbbell pins the pooled-packet
// lifecycle end to end: two competing flows over a dumbbell with a
// shallow bottleneck buffer AND random wire loss force every release
// site to fire — tail drops, random erasures, retransmissions, SACK
// recovery, RTOs — and at the end of the drained simulation every
// acquired packet must have been released exactly once.
//
// Exactly-once is fully verified under the sussdebug build tag, where
// a double release or a touch of a released packet panics and
// released packets are never recycled; this tag-less run still pins
// the leak half (acquired == released) plus drop/delivery accounting.
func TestPacketPoolOwnershipLossyDumbbell(t *testing.T) {
	sim := netsim.NewSimulator()
	rng := rand.New(rand.NewSource(7))
	d := netsim.NewDumbbell(sim, netsim.DumbbellSpec{
		Access: []netsim.LinkConfig{
			{Rate: 1e9, Delay: 2 * time.Millisecond, QueueBytes: 4 << 20},
			{Rate: 1e9, Delay: 2 * time.Millisecond, QueueBytes: 4 << 20},
		},
		Bottleneck: netsim.LinkConfig{
			Rate:       20e6,
			Delay:      20 * time.Millisecond,
			QueueBytes: 30000, // ~20 packets: forces tail drops under cwnd=64
			Impair:     netsim.Impairments{netem.Bernoulli(0.02, rng)},
		},
	})

	cfg := DefaultConfig()
	size := int64(1 << 20)
	var flows []*Flow
	for i := 0; i < 2; i++ {
		srvMux, cliMux := NewDemux(d.Servers[i]), NewDemux(d.Clients[i])
		ctrl := &fixedCC{cwnd: 64 * int64(cfg.MSS), halveOnLoss: true}
		f := NewFlow(sim, cfg, netsim.FlowID(i+1), d.Servers[i], srvMux, d.Clients[i], cliMux, size, ctrl)
		f.StartAt(sim, time.Duration(i)*10*time.Millisecond)
		flows = append(flows, f)
	}

	sim.Run(10 * time.Minute)

	for i, f := range flows {
		if !f.Done() {
			t.Fatalf("flow %d did not complete", i)
		}
		if f.Receiver.Received() != size {
			t.Fatalf("flow %d received %d, want %d", i, f.Receiver.Received(), size)
		}
	}
	bneck := d.Bottleneck.Stats()
	if bneck.DroppedPackets == 0 {
		t.Fatal("scenario produced no tail drops; leak test is not exercising the drop-release path")
	}
	if bneck.ErasedPackets == 0 {
		t.Fatal("scenario produced no wire losses; leak test is not exercising the loss-release path")
	}
	rtx := flows[0].Sender.Stats().Retransmissions + flows[1].Sender.Stats().Retransmissions
	if rtx == 0 {
		t.Fatal("no retransmissions; leak test is not exercising the recovery paths")
	}

	st := sim.Pool().Stats()
	if st.Acquired == 0 {
		t.Fatal("no packets acquired from the pool; endpoints are not using it")
	}
	if out := st.Outstanding(); out != 0 {
		t.Fatalf("packet leak: %d of %d acquired packets never released (released %d)",
			out, st.Acquired, st.Released)
	}
}

// TestPendingExactAfterFlowFinish pins the satellite fix: a finished
// sender Stops its RTO/TLP/kick timers, and with Stop unlinking
// timers from the wheel immediately, Pending() reflects only real
// future events.
func TestPendingExactAfterFlowFinish(t *testing.T) {
	ctrl := &fixedCC{cwnd: 64 * 1448}
	f, sim, _ := runFlow(t, 1<<20, 1e8, 50*time.Millisecond, 1<<20, ctrl)
	if !f.Done() {
		t.Fatal("flow did not complete")
	}
	if got := sim.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after a drained run, want 0 (cancelled timers must not linger)", got)
	}
}
