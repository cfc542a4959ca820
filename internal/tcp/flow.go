package tcp

import (
	"time"

	"suss/internal/cc"
	"suss/internal/netsim"
	"suss/internal/obs"
	"suss/internal/wire"
	"suss/internal/wire/simbackend"
)

// Demux dispatches packets delivered to a host among the flows
// terminating there. It lives with the simulator backend, whose conns
// it routes to; the alias keeps the many existing construction sites
// unchanged.
type Demux = simbackend.Demux

// NewDemux installs a demultiplexer as the host's packet handler.
func NewDemux(host *netsim.Host) *Demux { return simbackend.NewDemux(host) }

// Flow bundles a sender and receiver wired across the simulator.
//
// A flow is one allocation holding its endpoints, the two simulator
// conns NewFlow wires them over and the one counter block both count
// into. Reset turns a used flow into the one NewFlow would build,
// keeping the buffers it grew, so a caller that runs many flows can
// keep a slab of them.
type Flow struct {
	Sender   *Sender
	Receiver *Receiver

	startAt time.Duration
	c       obs.FlowCounters

	snd          Sender
	rcv          Receiver
	sconn, rconn simbackend.Conn

	// The endpoints' conn handlers, bound once for the flow's lifetime
	// (a method value allocates).
	onAck, onData wire.Handler
}

// NewFlow wires a sender on srcHost and a receiver on dstHost for a
// size-byte transfer over the simulator backend, registering both
// with the given demuxes.
func NewFlow(sim *netsim.Simulator, cfg Config, id netsim.FlowID,
	srcHost *netsim.Host, srcMux *Demux,
	dstHost *netsim.Host, dstMux *Demux,
	size int64, ctrl cc.Controller) *Flow {

	f := new(Flow)
	f.Reset(sim, cfg, id, srcHost, srcMux, dstHost, dstMux, size, ctrl)
	return f
}

// Reset makes f the flow NewFlow would return for the same arguments.
// The simulation f last ran in must be over: its conns are not
// unregistered from their old demuxes, and anything the caller kept
// of the old flow (a hook's captures, a controller) no longer drives
// it.
func (f *Flow) Reset(sim *netsim.Simulator, cfg Config, id netsim.FlowID,
	srcHost *netsim.Host, srcMux *Demux,
	dstHost *netsim.Host, dstMux *Demux,
	size int64, ctrl cc.Controller) {

	f.sconn.Reset(sim, srcHost, srcMux, dstHost.ID(), id)
	f.rconn.Reset(sim, dstHost, dstMux, srcHost.ID(), id)
	f.startAt, f.c = 0, obs.FlowCounters{}
	f.Sender, f.Receiver = &f.snd, &f.rcv
	f.snd.reset(&f.sconn, cfg, id, size, ctrl, &f.c)
	f.rcv.reset(&f.rconn, cfg, id, size, &f.c)
	if f.onAck == nil {
		f.onAck, f.onData = f.snd.HandleAck, f.rcv.Handle
	}
	f.sconn.SetHandler(f.onAck)
	f.rconn.SetHandler(f.onData)
}

// senderStartEv starts a flow's sender without a per-flow closure.
func senderStartEv(ctx, _ any) { ctx.(*Sender).Start() }

// StartAt schedules the flow to begin at virtual time at.
func (f *Flow) StartAt(sim *netsim.Simulator, at time.Duration) {
	f.startAt = at
	sim.ScheduleEventAt(at, senderStartEv, f.Sender, nil)
}

// FCT returns the receiver-side flow completion time (download FCT):
// time from the flow's start to the arrival of its last byte. Zero
// until complete.
func (f *Flow) FCT() time.Duration {
	if !f.Done() {
		return 0
	}
	return f.rcv.completedAt - f.startAt
}

// Done reports whether the receiver holds the complete stream.
func (f *Flow) Done() bool { return f.rcv.completedAt != 0 }
