// Package cctest runs congestion controllers through whole transfers
// on the simulator, for the controller packages' tests.
package cctest

import (
	"math/rand"
	"time"

	"suss/internal/cc"
	"suss/internal/netsim"
	"suss/internal/tcp"
)

// Lab is one flow over one bottleneck path, rerun on one engine the
// way a runner slot is: engine reset, path rebuilt, flow reset, and
// every controller of a transfer bound to the same sender.
type Lab struct {
	Sim  *netsim.Simulator
	flow tcp.Flow
	spec netsim.PathSpec
	size int64
}

// NewLab draws a bottleneck (20 or 100 Mbit/s, 20–140 ms RTT, a
// buffer of 0.2–1.2 BDP) and a transfer of 1–8 MB from rng.
func NewLab(rng *rand.Rand) *Lab {
	rate := []float64{2e7, 1e8}[rng.Intn(2)]
	owd := time.Duration(10+rng.Intn(60)) * time.Millisecond
	bdp := rate / 8 * (2 * owd).Seconds()
	return &Lab{
		Sim: netsim.NewSimulator(),
		spec: netsim.PathSpec{Forward: []netsim.LinkConfig{
			{Name: "core", Rate: 1e9, Delay: owd / 2, QueueBytes: 64 << 20},
			{Name: "bneck", Rate: rate, Delay: owd - owd/2, QueueBytes: int(bdp) * (2 + rng.Intn(11)) / 10},
		}},
		size: int64(1+rng.Intn(8)) << 20,
	}
}

// Reset readies a new transfer and returns its sender, the env the
// transfer's controller is bound to (the same one every time).
func (l *Lab) Reset() *tcp.Sender {
	l.Sim.Reset()
	p := netsim.NewPath(l.Sim, l.spec)
	l.flow.Reset(l.Sim, tcp.DefaultConfig(), 1, p.Sender, tcp.NewDemux(p.Sender), p.Receiver, tcp.NewDemux(p.Receiver), l.size, nil)
	return l.flow.Sender
}

// Sample is what a controller answered after one ACK.
type Sample struct {
	Cwnd   int64
	Pacing float64
}

// Run transfers under ctrl until the flow completes, horizon passes or
// stop (nil: never) holds, and returns the controller's window and
// pacing rate after every ACK.
func (l *Lab) Run(ctrl cc.Controller, horizon time.Duration, stop func() bool) []Sample {
	var out []Sample
	s := l.flow.Sender
	s.SetController(ctrl)
	s.OnAckTrace = func(_ time.Duration, cwnd int64, _ time.Duration, _ int64) {
		out = append(out, Sample{cwnd, ctrl.PacingRate()})
	}
	l.Sim.StopWhen(stop)
	l.flow.StartAt(l.Sim, 0)
	l.Sim.Run(horizon)
	return out
}

// Mistreat has the transport report a loss and a timeout to ctrl at
// virtual time at, and prove the timeout spurious 50 ms later, whatever
// the path did. Call it between Reset and Run.
func (l *Lab) Mistreat(ctrl interface {
	cc.Controller
	cc.Undoer
}, at time.Duration) {
	l.Sim.Schedule(at, func() {
		ctrl.OnLoss(cc.LossEvent{Now: l.Sim.Now(), Inflight: l.flow.Sender.Inflight()})
		ctrl.OnRTO(l.Sim.Now())
	})
	l.Sim.Schedule(at+50*time.Millisecond, func() { ctrl.UndoRTO(l.Sim.Now()) })
}
