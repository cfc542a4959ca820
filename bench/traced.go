package main

import (
	"time"

	"suss/internal/core"
	"suss/internal/netsim"
	"suss/internal/runner"
	"suss/internal/stats"
	"suss/internal/tcp"
	"suss/internal/workload"
)

// opCounts is what the layers did during the netsim.run spans of a
// traced pass, read from the counters the layers already keep. The
// traced run multiplies them by the per-op layer prices to see how
// much of the run the prices explain.
type opCounts struct {
	runNs    int64 // wall time inside netsim.run spans
	dataSegs int64 // data segments the senders emitted
	acks     int64 // ACKs the receivers emitted
	forwards int64 // packets a link accepted and carried
	drops    int64 // packets a link refused or lost
	poolGets int64
	// ackByAlgo splits acks by the controller that consumed them.
	ackByAlgo map[runner.Algo]int64
}

func (c *opCounts) addLinks(links ...*netsim.Link) {
	for _, l := range links {
		st := l.Stats()
		c.forwards += int64(st.EnqueuedPackets)
		c.drops += int64(st.DroppedPackets + st.ErasedPackets + st.CorruptedPackets + st.OutagePackets)
	}
}

func (c *opCounts) addAcks(algo runner.Algo, n int64) {
	if c.ackByAlgo == nil {
		c.ackByAlgo = make(map[runner.Algo]int64)
	}
	c.acks += n
	c.ackByAlgo[algo] += n
}

// offered is every packet handed to l, carried or not.
func offered(l *netsim.Link) int64 {
	st := l.Stats()
	return int64(st.EnqueuedPackets + st.DroppedPackets)
}

// tracedDownload runs one download through the same public calls
// runner.Download makes for a plain simulator job (no observer, no
// impairment hook, one event domain), with a span around each layer.
// Its result must equal runner.Download's; every traced pass and the
// package test check that.
func tracedDownload(j runner.Job, rec *spanRecorder, count *opCounts) runner.DownloadResult {
	if j.Backend != "" || j.Observe || j.Impair != nil || j.Domains > 1 || j.WallLimit > 0 {
		panic("bench: tracedDownload only mirrors the plain simulator path of runner.Download")
	}
	sc := j.Scenario
	sc.Seed = sc.Seed*1000003 + int64(j.Iter)*7919 + 1

	var (
		sim *netsim.Simulator
		p   *netsim.Path
		f   *tcp.Flow
	)
	rec.in("scenarios.build", func() {
		sim = netsim.NewSimulator()
		p, _ = sc.Build(sim)
	})
	rec.in("tcp.flow_setup", func() {
		cfg := tcp.DefaultConfig()
		if j.Transport != nil {
			cfg = *j.Transport
		}
		f = tcp.NewFlow(p.Sim, cfg, 1, p.Sender, tcp.NewDemux(p.Sender), p.Receiver, tcp.NewDemux(p.Receiver), j.Size, nil)
		if j.Algo == runner.Suss && j.SussOpt != nil {
			f.Sender.SetController(core.New(f.Sender, *j.SussOpt))
		} else {
			f.Sender.SetController(runner.NewController(j.Algo, f.Sender))
		}
		f.StartAt(p.Sim, 0)
	})
	horizon := j.Horizon
	if horizon <= 0 {
		horizon = runner.DefaultHorizon
	}
	id := rec.begin("netsim.run")
	sim.Run(horizon)
	rec.end(id)
	count.runNs += rec.spans[id].EndNs - rec.spans[id].StartNs

	var res runner.DownloadResult
	rec.in("runner.collect", func() {
		lst := p.Fwd[len(p.Fwd)-1].Stats()
		st := f.Sender.Stats()
		res = runner.DownloadResult{
			Algo:      j.Algo,
			Size:      j.Size,
			FCT:       f.FCT(),
			Delivered: f.Sender.Delivered(),
			Segments:  st.SegmentsSent,
			Retrans:   st.Retransmissions,
			RTOs:      st.RTOs,
			Drops:     lst.DroppedPackets + lst.ErasedPackets,
			PeakQueue: lst.MaxQueueBytes,
			Completed: f.Done(),
			FlowErr:   f.Sender.Err(),
		}
		if off := lst.EnqueuedPackets + lst.DroppedPackets; off > 0 {
			res.LossRate = float64(res.Drops) / float64(off)
		}
		if s, ok := f.Sender.Controller().(*core.Suss); ok {
			res.MaxG = s.Stats().MaxG
			res.AccelRounds = s.Stats().AcceleratedRounds
		}
	})

	count.dataSegs += int64(res.Segments)
	count.addAcks(j.Algo, offered(p.Rev[0]))
	count.addLinks(p.Fwd...)
	count.addLinks(p.Rev...)
	count.poolGets += sim.Pool().Stats().Acquired
	return res
}

// tracedFleetShard is the same for runner.RunFleetShard: one shard of
// the population replayed over its tree, monolithic and unobserved.
func tracedFleetShard(j runner.FleetJob, rec *spanRecorder, count *opCounts) runner.ShardResult {
	if j.Observe || j.Impair != nil || j.Domains > 1 || j.WallLimit > 0 {
		panic("bench: tracedFleetShard only mirrors the plain path of runner.RunFleetShard")
	}
	if j.Shards <= 0 {
		j.Shards = 1
	}
	var flows []workload.FlowSpec
	rec.in("workload.shard_gen", func() { flows = j.Pop.Shard(j.Shard, j.Shards) })

	fl := j.Fleet
	fl.Seed = fl.Seed*1000003 + int64(j.Shard)*7919 + 1
	var (
		sim            *netsim.Simulator
		tree           *netsim.Tree
		srvMux, cliMux []*tcp.Demux
	)
	rec.in("scenarios.build", func() {
		sim = netsim.NewSimulator()
		tree, _ = fl.Build(sim)
		srvMux = make([]*tcp.Demux, len(tree.Servers))
		for s, h := range tree.Servers {
			srvMux[s] = tcp.NewDemux(h)
		}
		cliMux = make([]*tcp.Demux, tree.NumClients())
		for c, h := range tree.Clients {
			cliMux[c] = tcp.NewDemux(h)
		}
	})

	tflows := make([]*tcp.Flow, len(flows))
	completed := 0
	rec.in("tcp.flow_setup", func() {
		cfg := tcp.DefaultConfig()
		if j.Transport != nil {
			cfg = *j.Transport
		}
		for i, fs := range flows {
			s := i % len(tree.Servers)
			c := i % tree.NumClients()
			f := tcp.NewFlow(tree.Sim, cfg, netsim.FlowID(i+1),
				tree.Servers[s], srvMux[s], tree.Clients[c], cliMux[c], fs.Size, nil)
			if j.Algo == runner.Suss && j.SussOpt != nil {
				f.Sender.SetController(core.New(f.Sender, *j.SussOpt))
			} else {
				f.Sender.SetController(runner.NewController(j.Algo, f.Sender))
			}
			prev := f.Receiver.OnComplete
			f.Receiver.OnComplete = func(now time.Duration) {
				prev(now)
				completed++
			}
			f.StartAt(tree.Sim, fs.Start)
			tflows[i] = f
		}
		sim.StopWhen(func() bool { return completed == len(flows) })
	})

	slack := j.Horizon
	if slack <= 0 {
		slack = runner.DefaultHorizon
	}
	id := rec.begin("netsim.run")
	end := sim.Run(workload.Horizon(flows, slack))
	rec.end(id)
	count.runNs += rec.spans[id].EndNs - rec.spans[id].StartNs

	down := make([]*netsim.Link, 0, len(tree.SrvUp)+1+len(tree.AggDown)+len(tree.AccessDown))
	down = append(down, tree.SrvUp...)
	down = append(down, tree.Core)
	down = append(down, tree.AggDown...)
	down = append(down, tree.AccessDown...)

	res := runner.ShardResult{Shard: j.Shard, Algo: j.Algo, Flows: make([]runner.FlowRecord, len(flows)), SimEnd: end}
	rec.in("runner.collect", func() {
		var goodputs []float64
		for i, fs := range flows {
			f := tflows[i]
			st := f.Sender.Stats()
			r := runner.FlowRecord{
				ID: fs.ID, Class: fs.Class, Size: fs.Size, Start: fs.Start,
				FCT: f.FCT(), Completed: f.Done(), Retrans: st.Retransmissions, RTOs: st.RTOs,
			}
			res.Flows[i] = r
			if r.Completed && r.FCT > 0 {
				goodputs = append(goodputs, float64(r.Size)/r.FCT.Seconds())
			}
			count.dataSegs += int64(st.SegmentsSent)
		}
		res.JainGoodput = stats.JainIndex(goodputs)
		res.Core = tree.Core.Stats()
		for _, l := range down {
			res.TotalDataDrops += l.Stats().DroppedPackets
		}
	})

	var acks int64
	for _, l := range tree.AccessUp {
		acks += offered(l)
	}
	count.addAcks(j.Algo, acks)
	count.addLinks(down...)
	count.addLinks(tree.SrvDown...)
	count.addLinks(tree.CoreRev)
	count.addLinks(tree.AggUp...)
	count.addLinks(tree.AccessUp...)
	count.poolGets += sim.Pool().Stats().Acquired
	return res
}

func (c *opCounts) add(o opCounts) {
	c.runNs += o.runNs
	c.dataSegs += o.dataSegs
	c.forwards += o.forwards
	c.drops += o.drops
	c.poolGets += o.poolGets
	for a, n := range o.ackByAlgo {
		c.addAcks(a, n)
	}
}

// unattributedShare is the part of the netsim.run spans that the
// layer prices do not explain: one minus Σ price × count over the
// time in the spans. The prices used are disjoint — links (with the
// timers under them), pool, codec, receiver, sender, controller — and
// each was taken on the layer's fast path, so a large share means the
// run spent its time where the fast-path prices do not reach. It is
// negative when the prices overestimate.
func (c opCounts) unattributedShare(price map[string]float64) float64 {
	if c.runNs == 0 {
		return 0
	}
	ns := float64(c.forwards)*price["netsim.link.forward_ns"] +
		float64(c.drops)*price["netsim.link.drop_ns"] +
		float64(c.poolGets)*price["netsim.pool.getput_ns"] +
		float64(c.dataSegs)*(price["wire.encode_data_ns"]+price["wire.decode_data_ns"]+price["tcp.receiver.data_ns"]) +
		float64(c.acks)*(price["wire.encode_sack_ns"]+price["wire.decode_sack_ns"]+price["tcp.sender.ack_ns"])
	onack := map[runner.Algo]string{
		runner.Cubic: "cc.cubic.onack_ns", runner.Suss: "cc.suss.onack_ns",
		runner.BBR: "cc.bbr.onack_ns", runner.Reno: "cc.reno.onack_ns",
	}
	for a, n := range c.ackByAlgo {
		ns += float64(n) * price[onack[a]]
	}
	return 1 - ns/float64(c.runNs)
}
