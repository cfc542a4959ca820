package tcp

import (
	"time"

	"suss/internal/cc"
	"suss/internal/netsim"
	"suss/internal/wire"
	"suss/internal/wire/simbackend"
)

// Demux dispatches packets delivered to a host among the flows
// terminating there. It lives with the simulator backend now (the
// other wire backends carry one flow per conn and need no demux); the
// alias keeps the many existing construction sites unchanged.
type Demux = simbackend.Demux

// NewDemux installs a demultiplexer as the host's packet handler.
func NewDemux(host *netsim.Host) *Demux { return simbackend.NewDemux(host) }

// Flow bundles a sender and receiver wired across a wire backend.
type Flow struct {
	ID       netsim.FlowID
	Sender   *Sender
	Receiver *Receiver

	// CompletedAt is the receiver-side completion time (when the last
	// byte arrived), the paper's FCT definition for downloads. Zero
	// until complete.
	CompletedAt time.Duration
	startAt     time.Duration
}

// NewFlowOver wires a sender and receiver for a size-byte transfer
// over an arbitrary pair of wire conns (one per endpoint), installing
// each endpoint as its conn's frame handler. This is the
// backend-agnostic constructor: the same sender and receiver code
// runs whether the conns attach to the simulator, an in-memory pipe
// or a UDP socket.
func NewFlowOver(cfg Config, id netsim.FlowID, sconn, rconn wire.Conn,
	size int64, ctrl cc.Controller) *Flow {

	f := &Flow{ID: id}
	f.Sender = NewSender(sconn, cfg, id, size, ctrl)
	f.Receiver = NewReceiver(rconn, cfg, id, size)
	f.Receiver.OnComplete = func(now time.Duration) { f.CompletedAt = now }
	sconn.SetHandler(f.Sender.HandleAck)
	rconn.SetHandler(f.Receiver.Handle)
	return f
}

// NewFlow wires a sender on srcHost and a receiver on dstHost for a
// size-byte transfer over the simulator backend, registering both
// with the given demuxes.
func NewFlow(sim *netsim.Simulator, cfg Config, id netsim.FlowID,
	srcHost *netsim.Host, srcMux *Demux,
	dstHost *netsim.Host, dstMux *Demux,
	size int64, ctrl cc.Controller) *Flow {

	sconn := simbackend.New(sim, srcHost, srcMux, dstHost.ID(), id)
	rconn := simbackend.New(sim, dstHost, dstMux, srcHost.ID(), id)
	return NewFlowOver(cfg, id, sconn, rconn, size, ctrl)
}

// StartAt schedules the flow to begin at virtual time at.
func (f *Flow) StartAt(sim *netsim.Simulator, at time.Duration) {
	f.startAt = at
	sim.ScheduleAt(at, f.Sender.Start)
}

// FCT returns the receiver-side flow completion time (download FCT):
// time from the flow's start to the arrival of its last byte. Zero
// until complete.
func (f *Flow) FCT() time.Duration {
	if f.CompletedAt == 0 {
		return 0
	}
	return f.CompletedAt - f.startAt
}

// Done reports whether the receiver holds the complete stream.
func (f *Flow) Done() bool { return f.CompletedAt != 0 }
