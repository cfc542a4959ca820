package netsim

import (
	"testing"
	"time"
)

func smallTreeSpec() TreeSpec {
	return TreeSpec{
		Groups:        2,
		HostsPerGroup: 3,
		Servers:       2,
		Core:          LinkConfig{Rate: 1e8, Delay: 10 * time.Millisecond},
		Agg:           LinkConfig{Rate: 5e7, Delay: 5 * time.Millisecond},
		Access:        LinkConfig{Rate: 2e7, Delay: 2 * time.Millisecond},
	}
}

// Every (server, client) pair must exchange a data packet and an ACK:
// the route tables cover the full host matrix in both
// directions.
func TestTreeAllPairsConnected(t *testing.T) {
	sim := NewSimulator()
	tr := NewTree(sim, smallTreeSpec())
	n := tr.NumClients()
	s := len(tr.Servers)

	received := make(map[[2]int]int) // [server, client] data arrivals
	acked := make(map[[2]int]int)

	for ci, cli := range tr.Clients {
		ci, cli := ci, cli
		cli.SetHandler(func(pkt *Packet) {
			received[[2]int{int(pkt.Flow), ci}]++
			cli.Send(&Packet{Kind: Ack, Size: 64, Flow: pkt.Flow, Dst: tr.Servers[pkt.Flow].ID()})
		})
	}
	for si, srv := range tr.Servers {
		si := si
		srv.SetHandler(func(pkt *Packet) {
			// The ACK's flow field still carries the server index.
			acked[[2]int{si, -1}]++
		})
	}
	sim.Schedule(0, func() {
		for si, srv := range tr.Servers {
			for _, cli := range tr.Clients {
				srv.Send(&Packet{Kind: Data, Size: 1500, Flow: FlowID(si), Dst: cli.ID()})
			}
		}
	})
	sim.RunAll()

	for si := 0; si < s; si++ {
		for ci := 0; ci < n; ci++ {
			if received[[2]int{si, ci}] != 1 {
				t.Errorf("server %d → client %d: %d data arrivals, want 1", si, ci, received[[2]int{si, ci}])
			}
		}
		if acked[[2]int{si, -1}] != n {
			t.Errorf("server %d: %d ACKs, want %d", si, acked[[2]int{si, -1}], n)
		}
	}
	// All data crossed the one shared core; all ACKs its mirror.
	if got := tr.Core.Stats().DeliveredPackets; got != s*n {
		t.Errorf("core delivered %d, want %d", got, s*n)
	}
	if got := tr.CoreRev.Stats().DeliveredPackets; got != s*n {
		t.Errorf("core-rev delivered %d, want %d", got, s*n)
	}
}

// The ACK path of every pair must mirror the data path level for
// level: each link down from the server carries the data packet, each
// link back up carries the ACK, and nothing strays onto another group's
// branch.
func TestTreeReversePathMirrorsForward(t *testing.T) {
	sim := NewSimulator()
	tr := NewTree(sim, smallTreeSpec())

	// One transfer: server 1 → last client of group 1.
	s, c := 1, tr.NumClients()-1
	cli := tr.Clients[c]
	cli.SetHandler(func(pkt *Packet) {
		cli.Send(&Packet{Kind: Ack, Size: 64, Dst: tr.Servers[s].ID()})
	})
	gotAck := false
	tr.Servers[s].SetHandler(func(*Packet) { gotAck = true })
	sim.Schedule(0, func() {
		tr.Servers[s].Send(&Packet{Kind: Data, Size: 1500, Dst: cli.ID()})
	})
	sim.RunAll()

	if !gotAck {
		t.Fatal("ack never returned")
	}
	// Data: server 1's access, the core, group 1's aggregation link and
	// client 5's access; the ACK climbs the mirrors of the same four.
	for i, l := range []*Link{
		tr.SrvUp[1], tr.Core, tr.AggDown[1], tr.AccessDown[5],
		tr.AccessUp[5], tr.AggUp[1], tr.CoreRev, tr.SrvDown[1],
	} {
		if got := l.Stats().DeliveredPackets; got != 1 {
			t.Errorf("link %d (%s): delivered %d, want 1", i, l.Name(), got)
		}
	}
	// Group 0's branch saw nothing.
	if got := tr.AggDown[0].Stats().DeliveredPackets + tr.AggUp[0].Stats().DeliveredPackets; got != 0 {
		t.Errorf("group 0 branch carried %d packets, want 0", got)
	}
	// The other server's access links saw only what it sent (nothing).
	if got := tr.SrvUp[0].Stats().EnqueuedPackets + tr.SrvDown[0].Stats().EnqueuedPackets; got != 0 {
		t.Errorf("server 0 edges carried %d packets, want 0", got)
	}
}

// A 1×1×1 tree is the degenerate linear path: one branch, three hops,
// and the end-to-end RTT is the sum of the duplex levels.
func TestTreeDegeneratesToPath(t *testing.T) {
	sim := NewSimulator()
	tr := NewTree(sim, TreeSpec{
		Groups:        1,
		HostsPerGroup: 1,
		Core:          LinkConfig{Rate: 1e9, Delay: 20 * time.Millisecond},
		Agg:           LinkConfig{Rate: 1e9, Delay: 15 * time.Millisecond},
		Access:        LinkConfig{Rate: 1e9, Delay: 15 * time.Millisecond},
	})
	cli := tr.Clients[0]
	var ackAt time.Duration
	cli.SetHandler(func(pkt *Packet) {
		cli.Send(&Packet{Kind: Ack, Size: 64, Dst: tr.Servers[0].ID()})
	})
	tr.Servers[0].SetHandler(func(*Packet) { ackAt = sim.Now() })
	sim.Schedule(0, func() {
		tr.Servers[0].Send(&Packet{Kind: Data, Size: 1500, Dst: cli.ID()})
	})
	sim.RunAll()
	// Propagation: 2×(20+15+15) ms = 100 ms plus serialization.
	if ackAt < 100*time.Millisecond || ackAt > 102*time.Millisecond {
		t.Errorf("degenerate-tree RTT = %v, want ≈100ms", ackAt)
	}
}

// Contention happens where it should: clients of one group overload
// their aggregation link without touching the other group's queue.
func TestTreeAggregationContention(t *testing.T) {
	sim := NewSimulator()
	spec := smallTreeSpec()
	spec.Agg = LinkConfig{Rate: 8e6, Delay: time.Millisecond, QueueBytes: 3000}
	tr := NewTree(sim, spec)
	for _, cli := range tr.Clients {
		cli.SetHandler(func(*Packet) {})
	}
	// Ten packets toward group 0 at once: 10×1000 B into a 3000 B queue
	// behind an 8 Mbps serializer must drop.
	sim.Schedule(0, func() {
		for j := 0; j < 10; j++ {
			tr.Servers[0].Send(&Packet{Kind: Data, Size: 1000, Dst: tr.Clients[j%3].ID()})
		}
	})
	sim.RunAll()
	g0 := tr.AggDown[0].Stats()
	if g0.DroppedPackets == 0 {
		t.Error("expected drops on the contended aggregation link")
	}
	if g0.DeliveredPackets+g0.DroppedPackets != 10 {
		t.Errorf("agg0 delivered+dropped = %d, want 10", g0.DeliveredPackets+g0.DroppedPackets)
	}
	if got := tr.AggDown[1].Stats().EnqueuedPackets; got != 0 {
		t.Errorf("agg1 carried %d packets, want 0", got)
	}
}

// TestTreeHotPathZeroAlloc drives pooled packets through the full
// server→trunk→core→aggregation→access pipeline and requires the
// steady state to be allocation-free, extending the linear-path alloc
// gate to the tree's multi-level forwarding.
func TestTreeHotPathZeroAlloc(t *testing.T) {
	if debugSequester {
		t.Skip("sussdebug: pool sequesters, steady state allocates by design")
	}
	sim := NewSimulator()
	tr := NewTree(sim, smallTreeSpec())
	var delivered []*Packet
	for _, cli := range tr.Clients {
		cli.SetHandler(func(pkt *Packet) { delivered = append(delivered, pkt) })
	}
	pool := sim.Pool()
	send := func(count int) {
		for i := 0; i < count; i++ {
			p := pool.Get()
			p.Kind = Data
			p.Size = 1500
			p.Dst = tr.Clients[i%tr.NumClients()].ID()
			tr.Servers[i%len(tr.Servers)].Send(p)
		}
		sim.RunAll()
		for _, p := range delivered {
			p.Release()
		}
		delivered = delivered[:0]
	}
	// Warm the pool, the ring-buffer queues and the delivered slice
	// past their growth phase.
	send(64)

	allocs := testing.AllocsPerRun(200, func() { send(6) })
	if allocs > 0 {
		t.Errorf("tree pipeline allocates %.1f allocs/op, want 0", allocs)
	}
}
