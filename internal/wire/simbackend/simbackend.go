// Package simbackend attaches wire.Conn endpoints to the
// deterministic simulator: every segment an endpoint sends is encoded
// into the frame buffer of a pooled netsim.Packet, travels the
// simulated topology as bytes-plus-accounting, and is strictly
// decoded back at the far host before the receiving endpoint sees it.
// The transport therefore exercises the real framing even in pure
// simulation, while the network layer keeps the modeled wire sizes
// (Config.HeaderBytes/AckBytes) that the pinned figure outputs were
// produced with.
//
// The frame is the packet's only header. Beside it Send sets just what
// the network layer reads: the wire size, the destination, the flow,
// the kind and a data segment's sequence number unwrapped to 64 bits.
// The hot path allocates nothing: frames encode into the packet's
// inline buffer and decode into a per-conn scratch Segment.
package simbackend

import (
	"fmt"
	"slices"

	"suss/internal/netsim"
	"suss/internal/wire"
)

// The packet's inline frame buffer must hold any header-only frame
// the codec can emit.
var _ [netsim.MaxFrameLen - wire.MaxHeaderLen]struct{}

// Demux dispatches packets delivered to a host among the flows
// terminating there, so several flows can share one host (the paper's
// Fig. 16 workload reuses client-server pairs for sequential flows).
//
// The routes are kept sorted by flow ID and found by binary search
// over the IDs stored inline, so a probe reads no conn. Every caller
// registers its flows in increasing ID order, so the insert is an
// append; there is no map on the packet path, and so no hash seed that
// could make two runs allocate differently.
type Demux struct {
	routes []route
}

// route is one registration: the flow and the conn it terminates at.
type route struct {
	flow netsim.FlowID
	conn *Conn
}

// NewDemux installs a demultiplexer as the host's packet handler.
// Ownership: packets routed to a registered flow are consumed (and
// released) by that flow's endpoint; packets for unregistered flows
// are released here, so no pooled packet leaks.
func NewDemux(host *netsim.Host) *Demux {
	d := &Demux{}
	host.SetHandler(d.deliver)
	return d
}

func (d *Demux) deliver(pkt *netsim.Packet) {
	if i, ok := d.search(pkt.Flow); ok {
		d.routes[i].conn.deliver(pkt)
	} else {
		pkt.Release()
	}
}

// search returns the index of flow id's route, or where it would go.
func (d *Demux) search(id netsim.FlowID) (int, bool) {
	lo, hi := 0, len(d.routes)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); d.routes[m].flow < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(d.routes) && d.routes[lo].flow == id
}

// register routes packets of c's flow to c, replacing any previous
// registration of that flow.
func (d *Demux) register(c *Conn) {
	if i, ok := d.search(c.flow); ok {
		d.routes[i].conn = c
	} else {
		d.routes = slices.Insert(d.routes, i, route{c.flow, c})
	}
}

// Reset forgets every registration, keeping the demux installed on its
// host and the capacity it grew: the demux NewDemux gives, for a
// topology that outlives the flows of one simulation.
func (d *Demux) Reset() {
	clear(d.routes)
	d.routes = d.routes[:0]
}

// Unregister removes a flow's conn.
func (d *Demux) Unregister(id netsim.FlowID) {
	if i, ok := d.search(id); ok {
		d.routes = slices.Delete(d.routes, i, i+1)
	}
}

// Conn is one endpoint's attachment to the simulated network,
// implementing wire.Conn for a single flow terminating at host.
type Conn struct {
	sim  *netsim.Simulator
	host *netsim.Host
	mux  *Demux
	peer netsim.NodeID
	flow netsim.FlowID

	h       wire.Handler
	scratch wire.Segment

	// seqNear anchors the 32→64-bit unwrap of outgoing data sequence
	// numbers into Packet.Seq.
	seqNear int64
}

// New attaches a conn for flow to host, delivering to peer. The
// conn's incoming frames are routed through mux once a handler is
// set.
func New(sim *netsim.Simulator, host *netsim.Host, mux *Demux, peer netsim.NodeID, flow netsim.FlowID) *Conn {
	c := new(Conn)
	c.Reset(sim, host, mux, peer, flow)
	return c
}

// Reset re-attaches c as New attaches a new conn, with no handler set.
// It does not unregister c from its previous demux: a conn is reused
// only once the simulation it was registered in is over.
func (c *Conn) Reset(sim *netsim.Simulator, host *netsim.Host, mux *Demux, peer netsim.NodeID, flow netsim.FlowID) {
	*c = Conn{sim: sim, host: host, mux: mux, peer: peer, flow: flow}
}

// Clock implements wire.Conn.
func (c *Conn) Clock() *netsim.Simulator { return c.sim }

// nodeAddr maps a simulator node ID into 10.0.0.0/8 for the frame's
// IP header.
func nodeAddr(id netsim.NodeID) uint32 { return 0x0A000000 | uint32(id)&0x00FFFFFF }

// Send implements wire.Conn: it encodes seg into a pooled packet's
// inline frame buffer and hands the packet to the host. Payload bytes
// are virtual in the simulator, so seg.Payload must be nil — the
// frame is header-only while its IP total length covers the payload.
// Of the header, the packet carries outside the frame only the kind
// and a data segment's 64-bit Seq, which the link's drop and
// duplicate events record.
func (c *Conn) Send(seg *wire.Segment, meta wire.SendMeta) int {
	if seg.Payload != nil {
		panic("simbackend: payload bytes are virtual in the simulator; seg.Payload must be nil")
	}
	seg.SrcAddr = nodeAddr(c.host.ID())
	seg.DstAddr = nodeAddr(c.peer)
	pkt := c.sim.Pool().Get()
	n, err := wire.EncodeSegment(pkt.FrameBuf(), seg)
	if err != nil {
		pkt.Release()
		panic(fmt.Sprintf("simbackend: encode: %v", err))
	}
	pkt.SetFrameLen(n - seg.PayloadLen)
	pkt.Flow = c.flow
	pkt.Dst = c.peer
	if meta.WireSize > 0 {
		pkt.Size = meta.WireSize
	} else {
		pkt.Size = n
	}
	if seg.IsData() {
		pkt.Kind = netsim.Data
		c.seqNear = wire.Unwrap32(c.seqNear, seg.Seq)
		pkt.Seq = c.seqNear
	} else {
		pkt.Kind = netsim.Ack
	}
	c.host.Send(pkt)
	return n
}

// SetHandler implements wire.Conn, routing the flow's packets through
// the demux into a strict decode; frames that fail it are dropped the
// way a NIC drops a checksum failure. Passing nil detaches the flow.
func (c *Conn) SetHandler(h wire.Handler) {
	c.h = h
	if h == nil {
		c.mux.Unregister(c.flow)
		return
	}
	c.mux.register(c)
}

func (c *Conn) deliver(pkt *netsim.Packet) {
	defer pkt.Release()
	n, err := wire.DecodeSegment(pkt.Frame(), &c.scratch)
	if err != nil {
		return
	}
	c.h(&c.scratch, n)
}
