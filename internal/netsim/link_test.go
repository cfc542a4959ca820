package netsim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"suss/internal/obs"
)

// sink collects delivered packets with arrival timestamps.
type sink struct {
	id   NodeID
	sim  *Simulator
	pkts []*Packet
	at   []time.Duration
}

func (s *sink) ID() NodeID { return s.id }
func (s *sink) Deliver(p *Packet) {
	s.pkts = append(s.pkts, p)
	s.at = append(s.at, s.sim.Now())
}

func TestLinkSerializationAndDelay(t *testing.T) {
	sim := NewSimulator()
	dst := &sink{id: 1, sim: sim}
	// 8 Mbps, 10 ms propagation: a 1000-byte packet serializes in 1 ms.
	l := NewLink(sim, LinkConfig{Name: "l", Rate: 8e6, Delay: 10 * time.Millisecond}, dst)
	sim.Schedule(0, func() {
		l.Enqueue(&Packet{Size: 1000, Dst: 1})
		l.Enqueue(&Packet{Size: 1000, Dst: 1})
	})
	sim.RunAll()
	if len(dst.pkts) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(dst.pkts))
	}
	if dst.at[0] != 11*time.Millisecond {
		t.Errorf("first arrival %v, want 11ms", dst.at[0])
	}
	// Second packet waits 1 ms behind the first in the serializer.
	if dst.at[1] != 12*time.Millisecond {
		t.Errorf("second arrival %v, want 12ms", dst.at[1])
	}
}

func TestLinkDropTail(t *testing.T) {
	sim := NewSimulator()
	dst := &sink{id: 1, sim: sim}
	l := NewLink(sim, LinkConfig{Name: "l", Rate: 8e6, Delay: time.Millisecond, QueueBytes: 2500}, dst)
	sim.Schedule(0, func() {
		for i := 0; i < 4; i++ {
			l.Enqueue(&Packet{Size: 1000, Dst: 1})
		}
	})
	sim.RunAll()
	// The first packet dequeues into the serializer immediately, so the
	// 2500 B buffer then holds packets 2 and 3; packet 4 tail-drops.
	c := l.Counters()
	if c.TailDropPkts != 1 || c.TailDropBytes != 1000 {
		t.Errorf("tail drops = %d (%d B), want 1 (serializer + 2×1000B buffered)", c.TailDropPkts, c.TailDropBytes)
	}
	if c.EnqueuedPkts != 3 || c.EnqueuedBytes != 3000 || c.DepthHighWaterBytes != 2000 {
		t.Errorf("enqueued %d (%d B), queue high water %d B; want 3 (3000 B), 2000 B", c.EnqueuedPkts, c.EnqueuedBytes, c.DepthHighWaterBytes)
	}
	if got := l.Stats().DroppedPackets; got != 1 {
		t.Errorf("stats drops = %d, want 1", got)
	}
	if len(dst.pkts) != 3 {
		t.Errorf("delivered = %d, want 3", len(dst.pkts))
	}
}

func TestLinkRandomLoss(t *testing.T) {
	sim := NewSimulator()
	dst := &sink{id: 1, sim: sim}
	n := 0
	l := NewLink(sim, LinkConfig{
		Name: "l", Rate: 1e9, Delay: time.Millisecond,
		Impair: Impairments{dropIf(func(*Packet) bool { n++; return n%2 == 0 })},
	}, dst)
	sim.Schedule(0, func() {
		for i := 0; i < 10; i++ {
			l.Enqueue(&Packet{Size: 100, Dst: 1})
		}
	})
	sim.RunAll()
	if len(dst.pkts) != 5 {
		t.Errorf("delivered %d, want 5", len(dst.pkts))
	}
	if got := l.Stats().ErasedPackets; got != 5 {
		t.Errorf("erased = %d, want 5", got)
	}
}

func TestLinkJitterInOrderClamp(t *testing.T) {
	sim := NewSimulator()
	dst := &sink{id: 1, sim: sim}
	jit := []time.Duration{20 * time.Millisecond, 0} // first packet delayed more
	i := 0
	l := NewLink(sim, LinkConfig{
		Name: "l", Rate: 8e7, Delay: time.Millisecond,
		Impair: Impairments{delayBy(func(*Packet) time.Duration { d := jit[i%2]; i++; return d })},
	}, dst)
	sim.Schedule(0, func() {
		l.Enqueue(&Packet{Size: 1000, Seq: 1, Dst: 1})
		l.Enqueue(&Packet{Size: 1000, Seq: 2, Dst: 1})
	})
	sim.RunAll()
	if len(dst.pkts) != 2 {
		t.Fatalf("delivered %d, want 2", len(dst.pkts))
	}
	if dst.pkts[0].Seq != 1 || dst.pkts[1].Seq != 2 {
		t.Errorf("jitter reordered a FIFO link: %d then %d", dst.pkts[0].Seq, dst.pkts[1].Seq)
	}
	if dst.at[1] < dst.at[0] {
		t.Errorf("arrival times reordered: %v then %v", dst.at[0], dst.at[1])
	}
}

func TestLinkVariableRate(t *testing.T) {
	sim := NewSimulator()
	dst := &sink{id: 1, sim: sim}
	// Rate halves after 10 ms: serialization of later packets doubles.
	model := func(now time.Duration) float64 {
		if now < 10*time.Millisecond {
			return 8e6
		}
		return 4e6
	}
	l := NewLink(sim, LinkConfig{Name: "l", RateModel: model, Delay: 0}, dst)
	sim.Schedule(0, func() { l.Enqueue(&Packet{Size: 1000, Dst: 1}) })
	sim.Schedule(20*time.Millisecond, func() { l.Enqueue(&Packet{Size: 1000, Dst: 1}) })
	sim.RunAll()
	if dst.at[0] != time.Millisecond {
		t.Errorf("fast-phase arrival %v, want 1ms", dst.at[0])
	}
	if dst.at[1] != 22*time.Millisecond {
		t.Errorf("slow-phase arrival %v, want 22ms", dst.at[1])
	}
}

// Property: conservation — with ample buffer and no random loss, every
// enqueued packet is delivered exactly once, in order.
func TestLinkConservationProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%100) + 1
		sim := NewSimulator()
		dst := &sink{id: 1, sim: sim}
		l := NewLink(sim, LinkConfig{Name: "l", Rate: 1e7, Delay: 5 * time.Millisecond, QueueBytes: 64 << 20}, dst)
		var sentBytes int64
		for i := 0; i < count; i++ {
			i := i
			size := rng.Intn(1400) + 60
			sentBytes += int64(size)
			sim.Schedule(time.Duration(rng.Intn(50))*time.Millisecond, func() {
				l.Enqueue(&Packet{Size: size, Seq: int64(i), Dst: 1})
			})
		}
		sim.RunAll()
		if len(dst.pkts) != count {
			return false
		}
		st := l.Stats()
		return st.DeliveredBytes == sentBytes && st.DroppedPackets == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: a link never delivers faster than its configured rate —
// total delivery time of a back-to-back burst is at least bytes*8/rate.
func TestLinkRateCeilingProperty(t *testing.T) {
	f := func(n uint8) bool {
		count := int(n%50) + 2
		sim := NewSimulator()
		dst := &sink{id: 1, sim: sim}
		rate := 1e7
		l := NewLink(sim, LinkConfig{Name: "l", Rate: rate, Delay: 0, QueueBytes: 64 << 20}, dst)
		size := 1000
		sim.Schedule(0, func() {
			for i := 0; i < count; i++ {
				l.Enqueue(&Packet{Size: size, Dst: 1})
			}
		})
		sim.RunAll()
		minTime := time.Duration(float64(count*size*8) / rate * float64(time.Second))
		return dst.at[len(dst.at)-1] >= minTime-time.Nanosecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNewLinkValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewLink with zero rate should panic")
		}
	}()
	NewLink(NewSimulator(), LinkConfig{Name: "bad"}, &sink{})
}

// dropIf is a wire-loss stage: it erases the packets its func picks.
type dropIf func(*Packet) bool

func (d dropIf) Judge(_ time.Duration, p *Packet) ImpairVerdict {
	if d(p) {
		return ImpairVerdict{Drop: true, Cause: obs.DropErasure}
	}
	return ImpairVerdict{}
}

// delayBy is a jitter stage: it adds its func's delay to each packet.
type delayBy func(*Packet) time.Duration

func (d delayBy) Judge(_ time.Duration, p *Packet) ImpairVerdict {
	return ImpairVerdict{ExtraDelay: d(p)}
}

// scriptStage is an impairment stage with a fixed verdict per Seq.
type scriptStage map[int64]ImpairVerdict

func (st scriptStage) Judge(_ time.Duration, p *Packet) ImpairVerdict { return st[p.Seq] }

// TestLinkLine: a link's in-flight packets cost the scheduler one
// pending timer, and every delivery fires at the (deadline, seq) key
// its own timer would have had — the seq taken when the packet
// propagated, not when it came to head the line.
func TestLinkLine(t *testing.T) {
	const delay = 50 * time.Millisecond
	tx := time.Duration(float64(1500*8) / 1e9 * float64(time.Second)) // as Link computes it
	arrival := func(i int) time.Duration { return time.Duration(i+1)*tx + delay }
	newLink := func(sim *Simulator, dst Node) *Link {
		return NewLink(sim, LinkConfig{Name: "l", Rate: 1e9, Delay: delay, QueueBytes: 2 << 20}, dst)
	}

	t.Run("one timer for 1000 packets in flight", func(t *testing.T) {
		sim := NewSimulator()
		dst := &sink{id: 1, sim: sim}
		l := newLink(sim, dst)
		for i := 0; i < 1000; i++ {
			l.Enqueue(&Packet{Size: 1500, Seq: int64(i), Dst: 1})
		}
		sim.Run(delay - time.Millisecond) // all serialized, none arrived
		n := 0
		for p := l.line.head; p != nil; p = p.next {
			n++
		}
		if n != 1000 || sim.Pending() != 1 {
			t.Fatalf("%d packets on the line, %d events pending; want 1000 and 1", n, sim.Pending())
		}
		if at, ok := sim.NextEventAt(); !ok || at != arrival(0) {
			t.Fatalf("NextEventAt() = %v, %v; want the head's arrival %v", at, ok, arrival(0))
		}
		// Packet 1 propagated long ago but is not the head yet: a timer
		// armed now at its arrival must fire after it is delivered.
		delivered := -1
		sim.ScheduleAt(arrival(1), func() { delivered = len(dst.pkts) })
		sim.RunAll()
		if delivered != 2 {
			t.Errorf("a timer armed after packet 1 propagated, at its arrival, fired after %d deliveries, want 2", delivered)
		}
		for i, p := range dst.pkts {
			if p.Seq != int64(i) || dst.at[i] != arrival(i) {
				t.Fatalf("delivery %d: seq %d at %v, want seq %d at %v", i, p.Seq, dst.at[i], i, arrival(i))
			}
		}
		if sim.Fired != 2000+1 {
			t.Errorf("Fired = %d, want 1000 transmits + 1000 deliveries + 1 timer", sim.Fired)
		}
	})

	t.Run("out-of-band deliveries interleave in key order", func(t *testing.T) {
		sim := NewSimulator()
		dst := &sink{id: 1, sim: sim}
		l := newLink(sim, dst)
		l.AttachImpairments(scriptStage{
			// A copy of 3 lands on 6's arrival; it propagated first.
			3: {Duplicate: true, DupExtraDelay: 3 * tx},
			// 5 is held back onto 8's arrival; it propagated first.
			5: {OutOfBand: true, ExtraDelay: 3 * tx},
			// 7 overtakes onto 6's arrival; it propagated after 6 did,
			// but before 6 came to head the line.
			7: {OutOfBand: true, ExtraDelay: -tx},
		})
		for i := 0; i < 10; i++ {
			l.Enqueue(&Packet{Size: 1500, Seq: int64(i), Dst: 1})
		}
		sim.RunAll()
		want := []struct {
			seq int64
			at  time.Duration
		}{
			{0, arrival(0)}, {1, arrival(1)}, {2, arrival(2)}, {3, arrival(3)}, {4, arrival(4)},
			{3, arrival(6)}, {6, arrival(6)}, {7, arrival(6)}, {5, arrival(8)}, {8, arrival(8)}, {9, arrival(9)},
		}
		if len(dst.pkts) != len(want) {
			t.Fatalf("delivered %d packets, want %d", len(dst.pkts), len(want))
		}
		for i, w := range want {
			if dst.pkts[i].Seq != w.seq || dst.at[i] != w.at {
				t.Errorf("delivery %d: seq %d at %v, want seq %d at %v", i, dst.pkts[i].Seq, dst.at[i], w.seq, w.at)
			}
		}
	})
}
