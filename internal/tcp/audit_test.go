package tcp

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"suss/internal/netem"
	"suss/internal/netsim"
	"suss/internal/wire"
)

// auditingFlow runs a flow under hostile conditions while auditing the
// scoreboard invariants after every ACK.
func runAuditedFlow(t *testing.T, seed int64, lossP float64, blackout bool, queueBytes int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sim := netsim.NewSimulator()
	loss := func(pkt *netsim.Packet) bool {
		if pkt.Kind != netsim.Data {
			return false
		}
		if blackout {
			now := sim.Now()
			if now > 300*time.Millisecond && now < 700*time.Millisecond {
				return true
			}
		}
		return rng.Float64() < lossP
	}
	p := netsim.NewPath(sim, netsim.PathSpec{Forward: []netsim.LinkConfig{
		{Name: "core", Rate: 1e9, Delay: 10 * time.Millisecond, QueueBytes: 16 << 20},
		{Name: "bneck", Rate: 2e7, Delay: 15 * time.Millisecond, QueueBytes: queueBytes, Impair: netsim.Impairments{dropIf(loss)}},
	}})
	cfg := DefaultConfig()
	f := NewFlow(sim, cfg, 1, p.Sender, NewDemux(p.Sender), p.Receiver, NewDemux(p.Receiver), 1<<20, nil)
	ctrl := &fixedCC{cwnd: 64 * 1448, halveOnLoss: true}
	f.Sender.SetController(ctrl)
	audits := 0
	f.Sender.OnAckTrace = func(now time.Duration, cwnd int64, srtt time.Duration, delivered int64) {
		audits++
		if audits%7 != 0 { // keep runtime sane; still hundreds of audits
			return
		}
		if problems := f.Sender.AuditScoreboard(); len(problems) != 0 {
			t.Fatalf("seed=%d t=%v scoreboard corrupt: %v", seed, now, problems)
		}
	}
	f.StartAt(sim, 0)
	sim.Run(5 * time.Minute)
	if !f.Done() {
		t.Fatalf("seed=%d flow did not complete", seed)
	}
	if problems := f.Sender.AuditScoreboard(); len(problems) != 0 {
		t.Fatalf("seed=%d final audit: %v", seed, problems)
	}
	if f.Receiver.Received() != 1<<20 {
		t.Fatalf("seed=%d received %d", seed, f.Receiver.Received())
	}
}

func TestScoreboardInvariantUnderRandomLoss(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		runAuditedFlow(t, seed, 0.05, false, 256<<10)
	}
}

func TestScoreboardInvariantUnderBlackout(t *testing.T) {
	// A blackout forces RTO go-back-N plus TLP interplay — the exact
	// regime where the lostQueue/TLP deadlock lived.
	for seed := int64(1); seed <= 4; seed++ {
		runAuditedFlow(t, seed, 0.02, true, 128<<10)
	}
}

func TestScoreboardInvariantTinyBuffer(t *testing.T) {
	// Severe congestive loss: buffer fits only ~8 packets.
	for seed := int64(1); seed <= 4; seed++ {
		runAuditedFlow(t, seed, 0, false, 12<<10)
	}
}

// Property: arbitrary loss probability and buffer still terminate with
// clean invariants.
func TestScoreboardInvariantProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64, lp uint8, q uint16) bool {
		lossP := float64(lp%12) / 100
		queue := int(q)%(512<<10) + 8<<10
		rng := rand.New(rand.NewSource(seed))
		sim := netsim.NewSimulator()
		loss := func(pkt *netsim.Packet) bool {
			return pkt.Kind == netsim.Data && rng.Float64() < lossP
		}
		p := netsim.NewPath(sim, netsim.PathSpec{Forward: []netsim.LinkConfig{
			{Name: "bneck", Rate: 2e7, Delay: 20 * time.Millisecond, QueueBytes: queue, Impair: netsim.Impairments{dropIf(loss)}},
		}})
		cfg := DefaultConfig()
		fl := NewFlow(sim, cfg, 1, p.Sender, NewDemux(p.Sender), p.Receiver, NewDemux(p.Receiver), 256<<10, nil)
		fl.Sender.SetController(&fixedCC{cwnd: 48 * 1448, halveOnLoss: true})
		fl.StartAt(sim, 0)
		sim.Run(10 * time.Minute)
		return fl.Done() && len(fl.Sender.AuditScoreboard()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAckLossTolerance(t *testing.T) {
	// Losing 20% of ACKs must not stall the flow (cumulative ACKs are
	// self-healing).
	rng := rand.New(rand.NewSource(3))
	sim := netsim.NewSimulator()
	p := netsim.NewPath(sim, netsim.PathSpec{Forward: []netsim.LinkConfig{
		{Name: "fwd", Rate: 5e7, Delay: 20 * time.Millisecond, QueueBytes: 1 << 20},
	}})
	p.Rev[0].AttachImpairments(netem.Bernoulli(0.2, rng))
	cfg := DefaultConfig()
	f := NewFlow(sim, cfg, 1, p.Sender, NewDemux(p.Sender), p.Receiver, NewDemux(p.Receiver), 1<<20, nil)
	f.Sender.SetController(&fixedCC{cwnd: 64 * 1448})
	f.StartAt(sim, 0)
	sim.Run(time.Minute)
	if !f.Done() {
		t.Fatal("flow did not survive ACK loss")
	}
	if problems := f.Sender.AuditScoreboard(); len(problems) != 0 {
		t.Fatalf("audit: %v", problems)
	}
}

func TestReorderingTolerance(t *testing.T) {
	// Mild reordering (a netem stage holding a third of the packets
	// back 0–2 ms) may cause spurious retransmissions but must not
	// corrupt the scoreboard or stall.
	rng := rand.New(rand.NewSource(9))
	sim := netsim.NewSimulator()
	p := netsim.NewPath(sim, netsim.PathSpec{Forward: []netsim.LinkConfig{
		{Name: "bneck", Rate: 5e7, Delay: 20 * time.Millisecond, QueueBytes: 2 << 20},
	}})
	p.Fwd[0].AttachImpairments(netem.NewReorder(1.0/3, 0, 2*time.Millisecond, rng))
	cfg := DefaultConfig()
	f := NewFlow(sim, cfg, 1, p.Sender, NewDemux(p.Sender), p.Receiver, NewDemux(p.Receiver), 2<<20, nil)
	f.Sender.SetController(&fixedCC{cwnd: 64 * 1448, halveOnLoss: true})
	// Only first transmissions carry a timestamp: one arriving below
	// another's sequence was overtaken on the path.
	var top uint32
	late := 0
	f.Receiver.OnData = func(_ time.Duration, seg *wire.Segment) {
		if !seg.HasTS {
			return
		}
		if seg.Seq < top {
			late++
		}
		top = max(top, seg.Seq)
	}
	f.StartAt(sim, 0)
	sim.Run(time.Minute)
	if !f.Done() {
		t.Fatal("flow did not survive reordering")
	}
	if late == 0 {
		t.Fatal("no segment arrived behind a later one: the path did not reorder")
	}
	if problems := f.Sender.AuditScoreboard(); len(problems) != 0 {
		t.Fatalf("audit: %v", problems)
	}
	if f.Receiver.Received() != 2<<20 {
		t.Fatalf("received %d", f.Receiver.Received())
	}
}

func TestTLPFiresOnTailLoss(t *testing.T) {
	// Drop exactly the last 3 segments of the initial window once: no
	// dupacks can arrive, so only a TLP (not a slow RTO) should recover.
	// The hook remembers what it dropped, so retransmissions pass.
	sim := netsim.NewSimulator()
	dropped := map[int64]bool{}
	loss := func(pkt *netsim.Packet) bool {
		if pkt.Kind == netsim.Data && pkt.Seq >= 7*1448 && pkt.Seq < 10*1448 && !dropped[pkt.Seq] {
			dropped[pkt.Seq] = true
			return true
		}
		return false
	}
	p := netsim.NewPath(sim, netsim.PathSpec{Forward: []netsim.LinkConfig{
		{Name: "bneck", Rate: 5e7, Delay: 20 * time.Millisecond, QueueBytes: 1 << 20, Impair: netsim.Impairments{dropIf(loss)}},
	}})
	cfg := DefaultConfig()
	f := NewFlow(sim, cfg, 1, p.Sender, NewDemux(p.Sender), p.Receiver, NewDemux(p.Receiver), 10*1448, nil)
	f.Sender.SetController(&fixedCC{cwnd: 10 * 1448})
	f.StartAt(sim, 0)
	sim.Run(time.Minute)
	if !f.Done() {
		t.Fatal("flow did not complete")
	}
	st := f.Sender.Stats()
	if st.TLPs == 0 {
		t.Error("tail loss should have triggered a TLP")
	}
	// TLP + SACK recovery should beat the 1 s initial RTO.
	if f.FCT() > 900*time.Millisecond {
		t.Errorf("FCT %v suggests RTO recovery instead of TLP", f.FCT())
	}
}
