package runner

import (
	"context"
	"fmt"
	"time"

	"suss/internal/core"
	"suss/internal/netsim"
	"suss/internal/obs"
	"suss/internal/scenarios"
	"suss/internal/stats"
	"suss/internal/tcp"
	"suss/internal/workload"
)

// FleetJob declares one shard of a population simulation: a slice of
// the flow population replayed over its own bottleneck tree. Shards
// are fully independent simulations — the runner executes one per
// worker and the experiment layer merges the records — so a fleet
// scales to all cores without any cross-simulator coupling.
type FleetJob struct {
	Fleet scenarios.Fleet
	Algo  Algo
	// Pop describes the whole population; the job simulates shard
	// Shard of Shards.
	Pop    workload.PopulationSpec
	Shard  int
	Shards int
	// SussOpt overrides the SUSS configuration when Algo == Suss.
	SussOpt *core.Options
	// Transport overrides the TCP configuration (nil = DefaultConfig).
	Transport *tcp.Config
	// Horizon caps simulated time past the last arrival (0 =
	// DefaultHorizon). The simulation stops early once every flow
	// completes.
	Horizon time.Duration
	// Observe attaches the flight recorder to every flow and every
	// data-path link and fills ShardResult.Ledger.
	Observe bool
	// WallLimit arms the wall-clock watchdog (see Job.WallLimit).
	WallLimit time.Duration
	// Impair, when non-nil, runs after the tree is built and before
	// any flow starts — the chaos hook for attaching impairment stages
	// to tree links.
	Impair func(env FleetChaosEnv)
	// Domains is retired (see Job.Domains): RunFleetShard refuses a
	// value > 1 through ShardResult.Err.
	Domains int
}

// FleetChaosEnv is what a fleet Impair hook gets to work with: the
// simulation, the wired tree, and the shard's derived seed so hooks
// can build private RNG streams. Sim and Tree belong to the worker's
// Scratch and are valid only while the shard runs.
type FleetChaosEnv struct {
	Sim  *netsim.Simulator
	Tree *netsim.Tree
	Seed int64
}

func (j FleetJob) describe() string {
	return fmt.Sprintf("fleet %s shard=%d/%d flows=%d", j.Algo, j.Shard, j.Shards, j.Pop.ShardFlows(j.Shard, j.Shards))
}

// FlowRecord is one flow's measurement: a population flow's in a
// fleet shard, or a testbed flow's (whose Class is the zero Class).
type FlowRecord struct {
	ID        int
	Class     workload.Class
	Size      int64
	Start     time.Duration
	FCT       time.Duration // zero when incomplete
	Completed bool
	Retrans   int
	RTOs      int
}

// ShardResult is one shard's population-level measurement.
type ShardResult struct {
	Shard int
	Algo  Algo
	Flows []FlowRecord

	// Core is the shared bottleneck's link statistics; TotalDataDrops
	// sums congestion drops over every data-path link (server access,
	// core, aggregation, leaf access).
	Core           netsim.LinkStats
	TotalDataDrops int

	// JainGoodput is Jain's index over completed flows' goodputs
	// (size/FCT) — the contention-fairness number the fleet report
	// tracks.
	JainGoodput float64

	// Ledger aggregates cross-layer loss accounting over every flow,
	// with each link counted once (nil unless Observe).
	Ledger *obs.LossLedger

	// SimEnd is the virtual time the shard stopped at.
	SimEnd time.Duration
	// Stall is non-nil when the watchdog killed the shard.
	Stall *StallError
	// Err reports a shard that could not run at all (a degenerate
	// Fleet with no clients or servers, a Shard outside [0, Shards), or
	// the retired Domains split);
	// the other fields are zero. Execution failures keep their
	// dedicated channels: watchdog kills land in Stall, panics in
	// FleetResult.Err.
	Err error `json:"-"`
}

// Completed counts finished flows.
func (r ShardResult) Completed() int {
	n := 0
	for _, f := range r.Flows {
		if f.Completed {
			n++
		}
	}
	return n
}

// RunFleetShard executes one shard synchronously on an engine of its
// own: the one-shot form of Scratch.RunFleetShard.
func RunFleetShard(j FleetJob) ShardResult { return new(Scratch).RunFleetShard(j) }

// RunFleetShard executes one shard synchronously on the scratch's
// engine: generate the shard's population slice, wire its tree, replay
// every flow at its arrival time, and collect the records. Determinism
// contract: the result depends only on the job's spec fields, never on
// wall clock, worker scheduling or what the scratch ran before.
func (scr *Scratch) RunFleetShard(j FleetJob) ShardResult {
	if j.Shards <= 0 {
		j.Shards = 1
	}
	// A degenerate tree has no leaf to place a flow on; the round-robin
	// spread below would divide by zero. Failing up front keeps the
	// root cause readable instead of burying it in panic capture.
	if j.Fleet.Groups <= 0 || j.Fleet.HostsPerGroup <= 0 || j.Fleet.Servers <= 0 {
		return ShardResult{Shard: j.Shard, Algo: j.Algo, Err: fmt.Errorf(
			"runner: degenerate fleet for %s: groups=%d hosts/group=%d servers=%d (all must be positive)",
			j.describe(), j.Fleet.Groups, j.Fleet.HostsPerGroup, j.Fleet.Servers)}
	}
	if j.Domains > 1 {
		return ShardResult{Shard: j.Shard, Algo: j.Algo, Err: fmt.Errorf("runner: %s: %s", j.describe(), domainsRemoved)}
	}
	if j.Shard < 0 || j.Shard >= j.Shards {
		return ShardResult{Shard: j.Shard, Algo: j.Algo, Err: fmt.Errorf(
			"runner: %s: shard %d out of range [0,%d)", j.describe(), j.Shard, j.Shards)}
	}
	simRuns.Add(1)
	flows := j.Pop.Shard(j.Shard, j.Shards)

	fl := j.Fleet
	fl.Seed = fl.Seed*1000003 + int64(j.Shard)*7919 + 1
	sim := scr.engine()
	tree := scr.treeFor(fl)

	cfg := tcp.DefaultConfig()
	if j.Transport != nil {
		cfg = *j.Transport
	}

	// One demux per host; every flow registers under its own ID.
	srvMux, cliMux := scr.srvMux, scr.cliMux

	var reg *obs.Registry
	if j.Observe || j.WallLimit > 0 {
		reg = obs.NewRegistry(0)
		for i, l := range downPathLinks(tree) {
			l.AttachRecorder(reg.Link(fmt.Sprintf("down%d/%s", i, l.Name())))
		}
	}

	// Flows are spread round-robin: flow i downloads from server
	// i%Servers to client i%NumClients, so every leaf and every branch
	// carries its share of the population.
	if scr.countDone == nil {
		scr.countDone = func(time.Duration) { scr.done++ }
	}
	scr.done = 0
	for i, fs := range flows {
		s := i % len(tree.Servers)
		c := i % tree.NumClients()
		f, ctrl := scr.flow(i, j.Algo, j.SussOpt, cfg, netsim.FlowID(i+1),
			tree.Servers[s], srvMux[s], tree.Clients[c], cliMux[c], fs.Size)
		if reg != nil {
			observe(reg, int32(i+1), f, ctrl)
		}
		f.Receiver.OnComplete = scr.countDone
		f.StartAt(sim, fs.Start)
	}
	slots := scr.slots[:len(flows)]
	// Stop as soon as the whole population has finished; abandoned
	// flows (dead-path aborts) drain the event queue on their own.
	sim.StopWhen(func() bool { return scr.done == len(flows) })
	defer sim.StopWhen(nil)

	if j.Impair != nil {
		j.Impair(FleetChaosEnv{Sim: sim, Tree: tree, Seed: fl.Seed})
	}

	slack := j.Horizon
	if slack <= 0 {
		slack = DefaultHorizon
	}
	horizon := workload.Horizon(flows, slack)
	var stall *StallError
	end, err := RunGuarded(sim, reg, horizon, j.WallLimit)
	if err != nil {
		stall = err.(*StallError)
		stall.Desc = j.describe()
	}

	res := ShardResult{Shard: j.Shard, Algo: j.Algo, Flows: make([]FlowRecord, len(flows)), SimEnd: end, Stall: stall}
	goodputs := make([]float64, 0, len(flows))
	for i, fs := range flows {
		rec := record(&slots[i].flow, fs)
		res.Flows[i] = rec
		if rec.Completed && rec.FCT > 0 {
			goodputs = append(goodputs, float64(rec.Size)/rec.FCT.Seconds())
		}
	}
	res.JainGoodput = stats.JainIndex(goodputs)
	res.Core = tree.Core.Stats()
	for _, l := range downPathLinks(tree) {
		res.TotalDataDrops += l.Stats().DroppedPackets
	}
	if reg != nil {
		// The links' drops once, however many flows share them, and
		// every flow's own books.
		led := obs.MakeLedger(&obs.FlowCounters{}, sealLinks(reg, downPathLinks(tree))...)
		for i := range flows {
			fr := reg.Flow(int32(i + 1))
			fr.C = *slots[i].flow.Sender.Counters()
			led.Add(obs.MakeLedger(&fr.C))
		}
		res.Ledger = &led
	}
	return res
}

// record is flow f's measurement as the population flow fs.
func record(f *tcp.Flow, fs workload.FlowSpec) FlowRecord {
	st := f.Sender.Stats()
	return FlowRecord{
		ID:        fs.ID,
		Class:     fs.Class,
		Size:      fs.Size,
		Start:     fs.Start,
		FCT:       f.FCT(),
		Completed: f.Done(),
		Retrans:   st.Retransmissions,
		RTOs:      st.RTOs,
	}
}

// downPathLinks lists every link the population's data crosses, each
// exactly once, in a deterministic order (server access, core,
// aggregation, leaf access).
func downPathLinks(t *netsim.Tree) []*netsim.Link {
	out := make([]*netsim.Link, 0, len(t.SrvUp)+1+len(t.AggDown)+len(t.AccessDown))
	out = append(out, t.SrvUp...)
	out = append(out, t.Core)
	out = append(out, t.AggDown...)
	out = append(out, t.AccessDown...)
	return out
}

// RunFleet executes every shard of the population on the worker pool
// and returns the results in shard order — byte-identical merges at
// any worker count, exactly like Run. A shard that panics or stalls
// carries its error without aborting the rest of the fleet.
func RunFleet(ctx context.Context, j FleetJob, opt Options) []FleetResult {
	if j.Shards <= 0 {
		j.Shards = 1
	}
	shards := make([]int, j.Shards)
	for i := range shards {
		shards[i] = i
	}
	outs := Map(ctx, shards, func(ctx context.Context, _ int, shard int) (ShardResult, error) {
		sj := j
		sj.Shard = shard
		r := ScratchFrom(ctx).RunFleetShard(sj)
		switch {
		case r.Err != nil:
			return r, r.Err
		case r.Stall != nil:
			return r, fmt.Errorf("%s: %w", sj.describe(), r.Stall)
		}
		return r, nil
	}, opt)
	res := make([]FleetResult, len(outs))
	for i, o := range outs {
		res[i] = FleetResult{ShardResult: o.Value, Err: o.Err}
	}
	return res
}

// FleetResult pairs a shard result with its execution error (panic,
// stall, or cancellation).
type FleetResult struct {
	ShardResult
	Err error
}
