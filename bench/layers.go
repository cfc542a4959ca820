package main

import (
	"math"
	"math/rand"
	"runtime"
	"time"

	"suss/internal/netem"
	"suss/internal/netsim"
	"suss/internal/scenarios"
	"suss/internal/wire"
	"suss/internal/wire/simbackend"
)

// layerDefs names every layer price, in the order README.md maps them
// to the end-to-end metric and workload each should move. A price is
// taken from outside the layer, by timing calls into its public
// functions; counters inside the program are a later change.
var layerDefs = []metricDef{
	{Name: "netsim.wheel.churn_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.wheel.fire_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.wheel.cascade_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.wheel.crowd_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.sim.cold_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.sim.cold_allocs", Unit: "allocs", Better: "lower"},
	{Name: "netsim.path.build_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.path.build_allocs", Unit: "allocs", Better: "lower"},
	{Name: "netsim.pool.getput_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.qdisc.droptail_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.qdisc.codel_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.link.forward_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.link.forward_allocs", Unit: "allocs", Better: "lower"},
	{Name: "netsim.link.drop_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.tree.build_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.tree.forward_ns", Unit: "ns", Better: "lower"},

	{Name: "wire.encode_data_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_data_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_sack_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_sack_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.codec_allocs", Unit: "allocs", Better: "lower"},
	{Name: "wire.simbackend.send_deliver_ns", Unit: "ns", Better: "lower"},

	{Name: "tcp.sender.ack_ns", Unit: "ns", Better: "lower"},
	{Name: "tcp.sender.ack_sack_ns", Unit: "ns", Better: "lower"},
	{Name: "tcp.receiver.data_ns", Unit: "ns", Better: "lower"},
	{Name: "tcp.receiver.ooo_ns", Unit: "ns", Better: "lower"},
	{Name: "tcp.flow.pkt_ns.cubic", Unit: "ns", Better: "lower"},
	{Name: "tcp.flow.pkt_ns.suss", Unit: "ns", Better: "lower"},
	{Name: "tcp.flow.pkt_ns.bbr", Unit: "ns", Better: "lower"},
	{Name: "tcp.flow.pkt_ns.reno", Unit: "ns", Better: "lower"},

	{Name: "cc.cubic.onack_ns", Unit: "ns", Better: "lower"},
	{Name: "cc.suss.onack_ns", Unit: "ns", Better: "lower"},
	{Name: "cc.bbr.onack_ns", Unit: "ns", Better: "lower"},
	{Name: "cc.reno.onack_ns", Unit: "ns", Better: "lower"},
	{Name: "cc.suss.onack_ss_ns", Unit: "ns", Better: "lower"},

	{Name: "obs.record_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.observed_ratio", Unit: "ratio", Better: "lower"},

	{Name: "runner.download.floor_ns", Unit: "ns", Better: "lower"},
	{Name: "runner.download.floor_allocs", Unit: "allocs", Better: "lower"},
	{Name: "runner.map.dispatch_ns", Unit: "ns", Better: "lower"},
	{Name: "runner.pool.speedup_w2", Unit: "ratio", Better: "higher"},

	{Name: "workload.shard_gen_ns", Unit: "ns", Better: "lower"},
	{Name: "experiments.fleet.fold_ns", Unit: "ns", Better: "lower"},
	{Name: "stats.cdf.build_ns", Unit: "ns", Better: "lower"},
	{Name: "experiments.fig11.fold_ns", Unit: "ns", Better: "lower"},

	{Name: "service.confhash.jobkey_ns", Unit: "ns", Better: "lower"},
	{Name: "service.confhash.fleetkey_ns", Unit: "ns", Better: "lower"},
	{Name: "service.cache.get_ns", Unit: "ns", Better: "lower"},
	{Name: "service.cache.put_mem_ns", Unit: "ns", Better: "lower"},
	{Name: "service.cache.put_persist_ns", Unit: "ns", Better: "lower"},
	{Name: "service.cache.replay_ns", Unit: "ns", Better: "lower"},
	{Name: "service.http_floor_ms", Unit: "ms", Better: "lower"},
	{Name: "service.warm_us_per_cell", Unit: "us", Better: "lower"},
	{Name: "service.warm_hit_ms_p99", Unit: "ms", Better: "lower"},
}

// pricer measures layer prices. Each is the median over o.layerRounds
// rounds; a round repeats a batch of operations until o.layerRound has
// passed and divides the time by the operations done.
type pricer struct {
	o    runOpts
	vals map[string]float64
	n    map[string]int // samples behind each value
}

// batch does some operations and reports how many and how long they
// took, so that a batch can keep its own set-up out of the time.
type batch func() (ops int, elapsed time.Duration)

// timed wraps a batch that has no set-up of its own.
func timed(fn func() int) batch {
	return func() (int, time.Duration) {
		t0 := time.Now()
		ops := fn()
		return ops, time.Since(t0)
	}
}

// ns records the price of one operation in nanoseconds.
func (p *pricer) ns(name string, b batch) {
	b() // warm caches and grow pools before the first round
	per := make([]float64, 0, p.o.layerRounds)
	for r := 0; r < p.o.layerRounds; r++ {
		var ops int
		var spent time.Duration
		for spent < p.o.layerRound || ops == 0 {
			n, d := b()
			ops += n
			spent += d
		}
		per = append(per, float64(spent)/float64(ops))
	}
	p.vals[name], p.n[name] = median(per), len(per)
}

// allocs records heap allocations per operation over a few batches.
func (p *pricer) allocs(name string, fn func() int) {
	fn()
	per := make([]float64, 0, 3)
	for r := 0; r < 3; r++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		ops := fn()
		runtime.ReadMemStats(&m1)
		per = append(per, float64(m1.Mallocs-m0.Mallocs)/float64(ops))
	}
	p.vals[name], p.n[name] = median(per), len(per)
}

// priceLayers prices every layer and returns the values and the
// number of samples behind each.
func priceLayers(o runOpts) (map[string]float64, map[string]int) {
	p := &pricer{o: o, vals: make(map[string]float64), n: make(map[string]int)}
	p.netsim()
	p.wire()
	p.tcp()
	p.cc()
	p.obs()
	p.runner()
	p.folds()
	p.service()
	return p.vals, p.n
}

// --- netsim ---

func nopEvent(_, _ any) {}

// crowd is a standing population of timers that each rearm themselves,
// the way thousands of concurrent flows keep their RTO and pacing
// timers alive.
type crowd struct {
	sim   *netsim.Simulator
	fired int
}

type crowdTimer struct{ period time.Duration }

func crowdTick(ctx, arg any) {
	c := ctx.(*crowd)
	c.fired++
	c.sim.ScheduleEvent(arg.(*crowdTimer).period, crowdTick, c, arg)
}

// sinkHost is a host that releases whatever reaches it.
func sinkHost(id netsim.NodeID) *netsim.Host {
	h := netsim.NewHost(id, "sink")
	h.SetHandler(func(pkt *netsim.Packet) { pkt.Release() })
	return h
}

func (p *pricer) netsim() {
	const population = 4096
	{
		// Almost every armed timer is rearmed before it fires: the RTO
		// reset per ACK.
		sim := netsim.NewSimulator()
		rng := rand.New(rand.NewSource(1))
		timers := make([]netsim.Timer, population)
		for i := range timers {
			timers[i] = sim.ScheduleEvent(time.Duration(1+rng.Intn(int(200*time.Millisecond))), nopEvent, nil, nil)
		}
		p.ns("netsim.wheel.churn_ns", timed(func() int {
			for k := range timers {
				d := time.Duration(1 + rng.Intn(int(200*time.Millisecond)))
				if nt, ok := timers[k].Reset(d); ok {
					timers[k] = nt
				} else {
					timers[k] = sim.ScheduleEvent(d, nopEvent, nil, nil)
				}
			}
			sim.Run(sim.Now() + time.Millisecond)
			return population
		}))
	}
	arm := func(name string, delay func(*rand.Rand) time.Duration) {
		sim := netsim.NewSimulator()
		rng := rand.New(rand.NewSource(2))
		deltas := make([]time.Duration, 1024)
		for i := range deltas {
			deltas[i] = delay(rng)
		}
		p.ns(name, timed(func() int {
			for _, d := range deltas {
				sim.ScheduleEvent(d, nopEvent, nil, nil)
			}
			sim.RunAll()
			return len(deltas)
		}))
	}
	// Serialization and delivery events: deadlines a few microseconds out.
	arm("netsim.wheel.fire_ns", func(rng *rand.Rand) time.Duration {
		return time.Duration(1+rng.Intn(100)) * time.Microsecond
	})
	// RTOs, delayed ACKs and flow arrivals: 1 ms to 10 s, log-uniform,
	// so every event cascades down through the wheel's levels.
	arm("netsim.wheel.cascade_ns", func(rng *rand.Rand) time.Duration {
		return time.Duration(float64(time.Millisecond) * math.Pow(10, 4*rng.Float64()))
	})
	{
		c := &crowd{sim: netsim.NewSimulator()}
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 10000; i++ {
			t := &crowdTimer{period: time.Duration(1+rng.Intn(100)) * time.Millisecond}
			c.sim.ScheduleEvent(time.Duration(rng.Int63n(int64(t.period))), crowdTick, c, t)
		}
		p.ns("netsim.wheel.crowd_ns", timed(func() int {
			before := c.fired
			c.sim.Run(c.sim.Now() + 5*time.Millisecond)
			return c.fired - before
		}))
	}

	// What every cell pays before its first packet: a new engine, then
	// the growth of its timer arena and packet pool from nothing.
	held := make([]*netsim.Packet, 512) // keeps the packets from being optimised away
	cold := func() int {
		sim := netsim.NewSimulator()
		for i := 0; i < 4096; i++ {
			sim.ScheduleEvent(time.Duration(i)*time.Microsecond, nopEvent, nil, nil)
		}
		for i := range held {
			held[i] = sim.Pool().Get()
		}
		return 1
	}
	p.ns("netsim.sim.cold_ns", timed(cold))
	p.allocs("netsim.sim.cold_allocs", cold)
	sc := scenarios.New(scenarios.GoogleTokyo, netem.LTE4G, 1)
	build := func() int {
		sc.Build(netsim.NewSimulator())
		return 1
	}
	p.ns("netsim.path.build_ns", timed(build))
	p.allocs("netsim.path.build_allocs", build)

	{
		pool := netsim.NewSimulator().Pool()
		p.ns("netsim.pool.getput_ns", timed(func() int {
			for i := 0; i < 1024; i++ {
				pool.Get().Release()
			}
			return 1024
		}))
	}
	qdisc := func(name string, q netsim.Qdisc) {
		pkts := make([]netsim.Packet, 64)
		for i := range pkts {
			pkts[i].Size = 1500
		}
		var now time.Duration
		// A standing queue of 32 packets, so the ring is exercised away
		// from its empty state.
		for i := 0; i < 32; i++ {
			q.Enqueue(now, &pkts[i])
		}
		next := 32
		p.ns(name, timed(func() int {
			for i := 0; i < 1024; i++ {
				now += 12 * time.Microsecond
				q.Enqueue(now, &pkts[next%len(pkts)])
				next++
				q.Dequeue(now)
			}
			return 1024
		}))
	}
	qdisc("netsim.qdisc.droptail_ns", netsim.NewDropTail(1<<20))
	qdisc("netsim.qdisc.codel_ns", netsim.NewCoDel(1<<20))

	{
		// 1500-byte packets through one 1 Gbit/s, 1 ms link: enqueue,
		// serialize, propagate, deliver.
		sim := netsim.NewSimulator()
		link := netsim.NewLink(sim, netsim.LinkConfig{Name: "l", Rate: 1e9, Delay: time.Millisecond}, sinkHost(1))
		forward := func() int {
			for i := 0; i < 256; i++ {
				pkt := sim.Pool().Get()
				pkt.Size = 1500
				link.Enqueue(pkt)
			}
			sim.RunAll()
			return 256
		}
		p.ns("netsim.link.forward_ns", timed(forward))
		p.allocs("netsim.link.forward_allocs", forward)
	}
	{
		// A 64-packet burst into a queue that holds two: what a link
		// pays per packet offered when most are tail-dropped.
		sim := netsim.NewSimulator()
		link := netsim.NewLink(sim, netsim.LinkConfig{Name: "l", Rate: 1e9, Delay: time.Millisecond, QueueBytes: 3000}, sinkHost(1))
		p.ns("netsim.link.drop_ns", timed(func() int {
			for i := 0; i < 64; i++ {
				pkt := sim.Pool().Get()
				pkt.Size = 1500
				link.Enqueue(pkt)
			}
			sim.RunAll()
			return 64
		}))
	}
	fleet := scenarios.DefaultFleet(1)
	p.ns("netsim.tree.build_ns", timed(func() int {
		fleet.Build(netsim.NewSimulator())
		return 1
	}))
	{
		sim := netsim.NewSimulator()
		tree, _ := fleet.Build(sim)
		for _, h := range tree.Clients {
			h.SetHandler(func(pkt *netsim.Packet) { pkt.Release() })
		}
		const hops = 4 // server access, core, aggregation, leaf access
		p.ns("netsim.tree.forward_ns", timed(func() int {
			for i := 0; i < 256; i++ {
				pkt := sim.Pool().Get()
				pkt.Size = 1500
				pkt.Dst = tree.Clients[i%len(tree.Clients)].ID()
				tree.Servers[i%len(tree.Servers)].Send(pkt)
			}
			sim.RunAll()
			return 256 * hops
		}))
	}
}

// --- wire ---

func (p *pricer) wire() {
	data := &wire.Segment{
		SrcPort: 1, DstPort: 1, Seq: 123456, Flags: wire.FlagACK | wire.FlagPSH, Window: 65535,
		HasTS: true, TSVal: 1, TSEcr: 2, PayloadLen: 1448,
	}
	sack := &wire.Segment{
		SrcPort: 1, DstPort: 1, Ack: 1000, Flags: wire.FlagACK, Window: 65535, HasTS: true, TSVal: 1, TSEcr: 2,
		NSack: 3, Sack: [wire.MaxSackBlocks]wire.SackBlock{{Start: 3000, End: 4000}, {Start: 5000, End: 6000}, {Start: 7000, End: 8000}},
	}
	var buf [wire.MaxHeaderLen]byte
	var out wire.Segment
	codec := func(enc, dec string, in *wire.Segment) {
		p.ns(enc, timed(func() int {
			for i := 0; i < 1024; i++ {
				if _, err := wire.EncodeSegment(buf[:], in); err != nil {
					panic(err)
				}
			}
			return 1024
		}))
		n, err := wire.EncodeSegment(buf[:], in)
		if err != nil {
			panic(err)
		}
		// The simulator carries header-only frames whose payload is
		// virtual, so that is the frame the decoder sees.
		frame := buf[:n-in.PayloadLen]
		p.ns(dec, timed(func() int {
			for i := 0; i < 1024; i++ {
				if _, err := wire.DecodeSegment(frame, &out); err != nil {
					panic(err)
				}
			}
			return 1024
		}))
	}
	codec("wire.encode_data_ns", "wire.decode_data_ns", data)
	codec("wire.encode_sack_ns", "wire.decode_sack_ns", sack)
	p.allocs("wire.codec_allocs", func() int {
		for i := 0; i < 1024; i++ {
			n, _ := wire.EncodeSegment(buf[:], sack)
			wire.DecodeSegment(buf[:n], &out)
		}
		return 1024
	})

	// A data segment from Conn.Send to the peer's handler across one
	// fast link: encode, pool, link, demux, strict decode. It contains
	// a link forward and a pool get.
	sim := netsim.NewSimulator()
	path := netsim.NewPath(sim, netsim.PathSpec{Forward: []netsim.LinkConfig{{Name: "l", Rate: 1e10, Delay: 10 * time.Microsecond}}})
	snd := simbackend.New(sim, path.Sender, simbackend.NewDemux(path.Sender), path.Receiver.ID(), 1)
	rcv := simbackend.New(sim, path.Receiver, simbackend.NewDemux(path.Receiver), path.Sender.ID(), 1)
	got := 0
	rcv.SetHandler(func(*wire.Segment, int) { got++ })
	p.ns("wire.simbackend.send_deliver_ns", timed(func() int {
		before := got
		for i := 0; i < 256; i++ {
			seg := *data
			seg.Seq += uint32(i * 1448)
			snd.Send(&seg, wire.SendMeta{WireSize: 1500})
		}
		sim.RunAll()
		return got - before
	}))
}
