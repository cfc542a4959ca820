package netsim

import (
	"testing"
	"time"
)

func TestDropTailBasics(t *testing.T) {
	q := NewDropTail(2500)
	if !q.Enqueue(0, &Packet{Size: 1000}) || !q.Enqueue(0, &Packet{Size: 1000}) {
		t.Fatal("packets within capacity refused")
	}
	if q.Enqueue(0, &Packet{Size: 1000}) {
		t.Fatal("over-capacity packet accepted")
	}
	if q.Bytes() != 2000 {
		t.Fatalf("bytes = %d", q.Bytes())
	}
	p, dropped := q.Dequeue(time.Millisecond)
	if p == nil || len(dropped) != 0 {
		t.Fatal("drop-tail must never drop at dequeue")
	}
	if q.Bytes() != 1000 {
		t.Fatalf("bytes after dequeue = %d", q.Bytes())
	}
	q.Dequeue(time.Millisecond)
	if p, _ := q.Dequeue(time.Millisecond); p != nil {
		t.Fatal("empty queue returned a packet")
	}
}

// TestDropTailLimitBoundary: a queue of limit L holds packets totalling
// exactly L bytes, and tail-drops a packet one byte past it.
func TestDropTailLimitBoundary(t *testing.T) {
	q := NewDropTail(2500)
	if !q.Enqueue(0, &Packet{Size: 1500}) || !q.Enqueue(0, &Packet{Size: 1000}) {
		t.Fatal("packets totalling exactly the limit refused")
	}
	if q.Enqueue(0, &Packet{Size: 1}) {
		t.Fatal("a byte past the limit accepted")
	}
	q.Dequeue(0)
	if !q.Enqueue(0, &Packet{Size: 1500}) || q.Enqueue(0, &Packet{Size: 1}) || q.Bytes() != 2500 {
		t.Fatalf("refilled to the limit: %d bytes queued, want 2500 and the next byte dropped", q.Bytes())
	}
}

func TestCoDelPassesLowDelayTraffic(t *testing.T) {
	q := NewCoDel(1 << 20).(*CoDel)
	now := time.Duration(0)
	// Packets dequeued within Target: never dropped.
	for i := 0; i < 1000; i++ {
		q.Enqueue(now, &Packet{Size: 1500, Seq: int64(i)})
		now += time.Millisecond // 1 ms sojourn < 5 ms target
		p, dropped := q.Dequeue(now)
		if p == nil || len(dropped) != 0 {
			t.Fatalf("packet %d: CoDel dropped low-delay traffic", i)
		}
	}
	if q.Drops != 0 {
		t.Fatalf("drops = %d", q.Drops)
	}
}

func TestCoDelDropsPersistentQueue(t *testing.T) {
	q := NewCoDel(4 << 20).(*CoDel)
	// Build a standing queue: packets wait 50 ms (≫ 5 ms target) and
	// the condition persists well past one 100 ms interval.
	now := time.Duration(0)
	seq := int64(0)
	for i := 0; i < 400; i++ {
		q.Enqueue(now, &Packet{Size: 1500, Seq: seq})
		seq++
	}
	var drops int
	for t2 := 50 * time.Millisecond; t2 < time.Second; t2 += time.Millisecond {
		// Keep the queue topped up so sojourn stays high.
		q.Enqueue(t2, &Packet{Size: 1500, Seq: seq})
		seq++
		_, dropped := q.Dequeue(t2)
		drops += len(dropped)
		now = t2
	}
	if drops == 0 {
		t.Fatal("CoDel never dropped despite a persistent standing queue")
	}
	if q.Drops != drops {
		t.Fatalf("Drops counter %d != observed %d", q.Drops, drops)
	}
}

func TestCoDelRecoversWhenQueueDrains(t *testing.T) {
	q := NewCoDel(4 << 20).(*CoDel)
	now := time.Duration(0)
	seq := int64(0)
	for i := 0; i < 200; i++ {
		q.Enqueue(now, &Packet{Size: 1500, Seq: seq})
		seq++
	}
	// Drain with high sojourn until dropping engages.
	for t2 := 50 * time.Millisecond; t2 < 400*time.Millisecond; t2 += time.Millisecond {
		q.Dequeue(t2)
	}
	if !q.dropping && q.Drops == 0 {
		t.Fatal("setup failed: dropping never engaged")
	}
	// Now fresh traffic with low sojourn: dropping state must end.
	base := 500 * time.Millisecond
	for i := 0; i < 50; i++ {
		at := base + time.Duration(i)*time.Millisecond
		q.Enqueue(at, &Packet{Size: 1500, Seq: seq})
		seq++
		p, dropped := q.Dequeue(at + time.Millisecond)
		if p != nil && len(dropped) > 0 && i > 5 {
			t.Fatal("CoDel kept dropping after the queue drained")
		}
	}
	if q.dropping {
		t.Error("still in dropping state with sub-target sojourn")
	}
}

// Integration: under identical unresponsive overload, a CoDel link
// sheds load early and holds a smaller standing queue than drop-tail
// (CoDel is designed for responsive flows, so against a constant 2×
// overload it only bounds the queue relative to the FIFO, not to the
// 5 ms target).
func TestCoDelLinkBoundsStandingDelay(t *testing.T) {
	run := func(factory QdiscFactory) LinkStats {
		sim := NewSimulator()
		dst := &sink{id: 1, sim: sim}
		l := NewLink(sim, LinkConfig{
			Name: "q", Rate: 1e7, Delay: time.Millisecond,
			QueueBytes: 4 << 20, Qdisc: factory,
		}, dst)
		for at := time.Duration(0); at < 2*time.Second; at += 600 * time.Microsecond {
			at := at
			sim.Schedule(at, func() { l.Enqueue(&Packet{Size: 1500, Dst: 1}) })
		}
		sim.RunAll()
		return l.Stats()
	}
	codel := run(CoDelFactory)
	fifo := run(nil)
	if codel.DroppedPackets == 0 {
		t.Fatal("CoDel never dropped under 2× overload")
	}
	if codel.MaxQueueBytes >= fifo.MaxQueueBytes {
		t.Errorf("CoDel max queue %d not below drop-tail %d", codel.MaxQueueBytes, fifo.MaxQueueBytes)
	}
	// And it must start shedding before the FIFO fills (drop-tail only
	// drops once the 4 MiB buffer is exhausted — 2 s of 2× overload
	// never gets there, so FIFO drops stay 0 while CoDel's are not).
	if fifo.DroppedPackets != 0 {
		t.Skipf("FIFO dropped %d; load assumption broken", fifo.DroppedPackets)
	}
}
