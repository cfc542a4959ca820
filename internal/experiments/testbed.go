package experiments

import (
	"fmt"
	"time"

	"suss/internal/core"
	"suss/internal/netsim"
	"suss/internal/runner"
	"suss/internal/scenarios"
	"suss/internal/stats"
	"suss/internal/tcp"
)

// TestbedFlow describes one flow on the local dumbbell.
type TestbedFlow struct {
	// Pair selects the client-server pair (0-based).
	Pair int
	// Algo picks the congestion controller.
	Algo Algo
	// SussOpt overrides SUSS options when Algo == Suss (nil = default).
	SussOpt *SussOptions
	// Size in bytes; 0 means "unbounded" (runs until the horizon) and
	// is modeled as a flow far larger than the horizon can drain.
	Size int64
	// Start is the flow's start time.
	Start time.Duration
}

// TestbedRun holds the wired simulation and its measurement hooks.
type TestbedRun struct {
	Sim      *netsim.Simulator
	Dumbbell *netsim.Dumbbell
	Flows    []*tcp.Flow
	// Goodput bins per flow (delivered bytes added per bin).
	Bins []*stats.BinnedCounter
}

// RunTestbed builds the dumbbell, wires the flows, runs to the
// horizon, and returns the measurements. Each pair's hosts carry a
// demux so multiple (sequential) flows can share a pair.
func RunTestbed(tb scenarios.Testbed, specs []TestbedFlow, horizon, bin time.Duration) *TestbedRun {
	sim := netsim.NewSimulator()
	d := tb.Build(sim)

	srvMux := make([]*tcp.Demux, tb.Pairs)
	cliMux := make([]*tcp.Demux, tb.Pairs)
	for i := 0; i < tb.Pairs; i++ {
		srvMux[i] = tcp.NewDemux(d.Servers[i])
		cliMux[i] = tcp.NewDemux(d.Clients[i])
	}

	run := &TestbedRun{Sim: sim, Dumbbell: d}
	cfg := tcp.DefaultConfig()
	for i, spec := range specs {
		if spec.Pair < 0 || spec.Pair >= tb.Pairs {
			panic(fmt.Sprintf("experiments: flow %d uses pair %d of %d", i, spec.Pair, tb.Pairs))
		}
		size := spec.Size
		if size == 0 {
			// Effectively unbounded for any realistic horizon.
			size = 1 << 40
		}
		f := tcp.NewFlow(sim, cfg, netsim.FlowID(i+1),
			d.Servers[spec.Pair], srvMux[spec.Pair],
			d.Clients[spec.Pair], cliMux[spec.Pair],
			size, nil)
		if spec.Algo == Suss && spec.SussOpt != nil {
			f.Sender.SetController(core.New(f.Sender, *spec.SussOpt))
		} else {
			f.Sender.SetController(runner.NewController(spec.Algo, f.Sender))
		}

		b := stats.NewBinnedCounter(bin)
		run.Bins = append(run.Bins, b)
		var lastDelivered int64
		f.Sender.OnAckTrace = func(now time.Duration, cwnd int64, srtt time.Duration, delivered int64) {
			b.Add(now, float64(delivered-lastDelivered))
			lastDelivered = delivered
		}
		f.StartAt(sim, spec.Start)
		run.Flows = append(run.Flows, f)
	}
	sim.Run(horizon)
	return run
}

// FlowFCTsSeconds returns the receiver-side FCTs of the selected flows
// (panics if one did not complete — size the horizon generously).
func (r *TestbedRun) FlowFCTsSeconds(idx []int) []float64 {
	var out []float64
	for _, i := range idx {
		f := r.Flows[i]
		if !f.Done() {
			panic(fmt.Sprintf("experiments: testbed flow %d did not complete", i))
		}
		out = append(out, f.FCT().Seconds())
	}
	return out
}
