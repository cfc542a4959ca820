package runner

import (
	"fmt"
	"time"

	"suss/internal/netsim"
	"suss/internal/scenarios"
	"suss/internal/stats"
	"suss/internal/tcp"
	"suss/internal/workload"
)

// TestbedJob declares one run on the paper's local dumbbell testbed
// (Figs. 2, 15, 16, Table 1, the web mix): flows over its pairs sharing
// the one bottleneck, each under its own controller from its own start
// time. The testbed has no randomness, so there is nothing to seed.
type TestbedJob struct {
	Testbed scenarios.Testbed
	Flows   []TestbedFlow
	// Horizon caps simulated time (0 = DefaultHorizon).
	Horizon time.Duration
}

// TestbedFlow is one flow of a TestbedJob.
type TestbedFlow struct {
	// Pair selects the client-server pair (0-based); a pair may carry
	// several flows.
	Pair int
	Algo Algo
	// Size in bytes; 0 means unbounded: the flow runs to the horizon.
	Size  int64
	Start time.Duration
}

// TestbedResult holds one record per job flow, in job order (ID is the
// flow's index), and each flow's delivered bytes per 1 s bin.
type TestbedResult struct {
	Flows []FlowRecord
	Bins  []*stats.BinnedCounter
}

// RunTestbed executes one testbed job synchronously on an engine of its
// own: the one-shot form of Scratch.RunTestbed.
func RunTestbed(j TestbedJob) TestbedResult { return new(Scratch).RunTestbed(j) }

// RunTestbed executes one testbed job on the scratch's engine and flow
// slots: flow i runs in slot i, whatever the scratch ran before.
func (scr *Scratch) RunTestbed(j TestbedJob) TestbedResult {
	tb := j.Testbed
	simRuns.Add(1)
	sim := scr.engine()
	d := tb.Build(sim)
	srvMux := make([]*tcp.Demux, tb.Pairs)
	cliMux := make([]*tcp.Demux, tb.Pairs)
	for i := range srvMux {
		srvMux[i], cliMux[i] = tcp.NewDemux(d.Servers[i]), tcp.NewDemux(d.Clients[i])
	}

	cfg := tcp.DefaultConfig()
	res := TestbedResult{Flows: make([]FlowRecord, len(j.Flows)), Bins: make([]*stats.BinnedCounter, len(j.Flows))}
	for i, fl := range j.Flows {
		if fl.Pair < 0 || fl.Pair >= tb.Pairs {
			panic(fmt.Sprintf("runner: testbed flow %d uses pair %d of %d", i, fl.Pair, tb.Pairs))
		}
		size := fl.Size
		if size == 0 {
			size = 1 << 40 // more than any horizon drains
		}
		f, _ := scr.flow(i, fl.Algo, nil, cfg, netsim.FlowID(i+1),
			d.Servers[fl.Pair], srvMux[fl.Pair], d.Clients[fl.Pair], cliMux[fl.Pair], size)
		b := stats.NewBinnedCounter(time.Second)
		res.Bins[i] = b
		var last int64
		f.Sender.OnAckTrace = func(now time.Duration, _ int64, _ time.Duration, delivered int64) {
			b.Add(now, float64(delivered-last))
			last = delivered
		}
		f.StartAt(sim, fl.Start)
	}
	horizon := j.Horizon
	if horizon <= 0 {
		horizon = DefaultHorizon
	}
	sim.Run(horizon)
	for i, fl := range j.Flows {
		res.Flows[i] = record(&scr.slots[i].flow, workload.FlowSpec{ID: i, Size: fl.Size, Start: fl.Start})
	}
	return res
}
