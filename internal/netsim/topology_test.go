package netsim

import (
	"testing"
	"time"
)

func TestPathRoundTrip(t *testing.T) {
	sim := NewSimulator()
	p := NewPath(sim, PathSpec{Forward: []LinkConfig{
		{Name: "core", Rate: 1e9, Delay: 40 * time.Millisecond},
		{Name: "last", Rate: 1e8, Delay: 10 * time.Millisecond},
	}})

	var gotAtReceiver, gotAtSender *Packet
	var rxTime, ackTime time.Duration
	p.Receiver.SetHandler(func(pkt *Packet) {
		gotAtReceiver = pkt
		rxTime = sim.Now()
		p.Receiver.Send(&Packet{Kind: Ack, Size: 64, Dst: p.Sender.ID()})
	})
	p.Sender.SetHandler(func(pkt *Packet) {
		gotAtSender = pkt
		ackTime = sim.Now()
	})

	sim.Schedule(0, func() {
		p.Sender.Send(&Packet{Kind: Data, Size: 1500, Dst: p.Receiver.ID()})
	})
	sim.RunAll()

	if gotAtReceiver == nil {
		t.Fatal("data packet never arrived")
	}
	if gotAtSender == nil {
		t.Fatal("ack never returned")
	}
	// One-way: 40ms+10ms prop + serialization (12µs + 120µs).
	wantMin := 50 * time.Millisecond
	if rxTime < wantMin {
		t.Errorf("data arrival %v < propagation %v", rxTime, wantMin)
	}
	if ackTime <= rxTime {
		t.Errorf("ack time %v not after data time %v", ackTime, rxTime)
	}
	rtt := ackTime
	if rtt < 100*time.Millisecond || rtt > 102*time.Millisecond {
		t.Errorf("RTT = %v, want ≈100ms", rtt)
	}
}

func TestPathSingleLink(t *testing.T) {
	sim := NewSimulator()
	p := NewPath(sim, PathSpec{Forward: []LinkConfig{
		{Name: "only", Rate: 1e8, Delay: 5 * time.Millisecond},
	}})
	got := 0
	p.Receiver.SetHandler(func(*Packet) { got++ })
	sim.Schedule(0, func() {
		p.Sender.Send(&Packet{Size: 100, Dst: p.Receiver.ID()})
	})
	sim.RunAll()
	if got != 1 {
		t.Fatalf("delivered %d, want 1", got)
	}
	if len(p.Routers) != 0 {
		t.Errorf("single-link path has %d routers, want 0", len(p.Routers))
	}
}

func TestDumbbellAllPairsConnected(t *testing.T) {
	sim := NewSimulator()
	acc := LinkConfig{Rate: 1e9, Delay: time.Millisecond}
	d := NewDumbbell(sim, DumbbellSpec{
		Access:     []LinkConfig{acc, acc, acc},
		Bottleneck: LinkConfig{Rate: 5e7, Delay: 20 * time.Millisecond, QueueBytes: 1 << 20},
	})
	received := make([]int, 3)
	acked := make([]int, 3)
	for i := 0; i < 3; i++ {
		i := i
		d.Clients[i].SetHandler(func(pkt *Packet) {
			received[i]++
			d.Clients[i].Send(&Packet{Kind: Ack, Size: 64, Dst: d.Servers[i].ID()})
		})
		d.Servers[i].SetHandler(func(*Packet) { acked[i]++ })
		srv := d.Servers[i]
		cli := d.Clients[i]
		sim.Schedule(0, func() {
			srv.Send(&Packet{Kind: Data, Size: 1500, Dst: cli.ID()})
		})
	}
	sim.RunAll()
	for i := 0; i < 3; i++ {
		if received[i] != 1 || acked[i] != 1 {
			t.Errorf("pair %d: received=%d acked=%d, want 1/1", i, received[i], acked[i])
		}
	}
	// All three data packets crossed the shared bottleneck.
	if got := d.Bottleneck.Stats().DeliveredPackets; got != 3 {
		t.Errorf("bottleneck delivered %d, want 3", got)
	}
}

func TestDumbbellSharedBottleneckContention(t *testing.T) {
	sim := NewSimulator()
	acc := LinkConfig{Rate: 1e9, Delay: time.Millisecond}
	d := NewDumbbell(sim, DumbbellSpec{
		Access:     []LinkConfig{acc, acc},
		Bottleneck: LinkConfig{Rate: 8e6, Delay: time.Millisecond, QueueBytes: 3000},
	})
	for i := range d.Clients {
		d.Clients[i].SetHandler(func(*Packet) {})
	}
	// Both servers dump 5 packets at once: 10×1000B into a 3000B queue
	// behind an 8 Mbps serializer must drop some.
	sim.Schedule(0, func() {
		for i, srv := range d.Servers {
			for j := 0; j < 5; j++ {
				srv.Send(&Packet{Kind: Data, Size: 1000, Dst: d.Clients[i].ID()})
			}
		}
	})
	sim.RunAll()
	st := d.Bottleneck.Stats()
	if st.DroppedPackets == 0 {
		t.Error("expected tail drops at shared bottleneck")
	}
	if st.DeliveredPackets+st.DroppedPackets != 10 {
		t.Errorf("delivered+dropped = %d, want 10", st.DeliveredPackets+st.DroppedPackets)
	}
}

func TestDumbbellPerPairDelay(t *testing.T) {
	sim := NewSimulator()
	d := NewDumbbell(sim, DumbbellSpec{
		Access: []LinkConfig{
			{Rate: 1e9, Delay: time.Millisecond},
			{Rate: 1e9, Delay: 11 * time.Millisecond},
		},
		Bottleneck: LinkConfig{Rate: 1e8, Delay: 5 * time.Millisecond},
	})
	arrivals := make([]time.Duration, 2)
	for i := range d.Clients {
		i := i
		d.Clients[i].SetHandler(func(*Packet) { arrivals[i] = sim.Now() })
	}
	sim.Schedule(0, func() {
		for i, srv := range d.Servers {
			srv.Send(&Packet{Size: 100, Dst: d.Clients[i].ID()})
		}
	})
	sim.RunAll()
	if arrivals[1]-arrivals[0] < 9*time.Millisecond {
		t.Errorf("pair delays not applied: arrivals %v", arrivals)
	}
}

func TestRouterUnknownDestinationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unrouted destination")
		}
	}()
	r := NewRouter(1, "r")
	r.Deliver(&Packet{Dst: 99})
}
