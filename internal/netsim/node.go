package netsim

import "fmt"

// Router forwards packets by destination address over per-destination
// output links. It models a store-and-forward IP router: queueing and
// serialization happen in the outgoing Link.
type Router struct {
	id     NodeID
	name   string
	routes []*Link // indexed by destination NodeID (dense wiring-order ids)
}

// NewRouter creates a router with the given address.
func NewRouter(id NodeID, name string) *Router {
	return &Router{id: id, name: name}
}

// ID implements Node.
func (r *Router) ID() NodeID { return r.id }

// AddRoute sends traffic destined to dst out via link. Later calls for
// the same destination replace the route.
func (r *Router) AddRoute(dst NodeID, link *Link) {
	if int(dst) >= len(r.routes) {
		r.routes = append(r.routes, make([]*Link, int(dst)+1-len(r.routes))...)
	}
	r.routes[dst] = link
}

// Deliver implements Node by forwarding onto the routed output link.
// Packets with no route panic: a simulation wiring bug, not a runtime
// condition.
func (r *Router) Deliver(pkt *Packet) {
	debugCheckLive(pkt, "router deliver")
	if uint(pkt.Dst) >= uint(len(r.routes)) || r.routes[pkt.Dst] == nil {
		panic(fmt.Sprintf("netsim: router %q has no route to node %d", r.name, pkt.Dst))
	}
	r.routes[pkt.Dst].Enqueue(pkt)
}

// Host is a leaf node that hands every delivered packet to a handler
// (normally a transport endpoint).
type Host struct {
	id      NodeID
	name    string
	handler func(pkt *Packet)
	out     *Link
}

// NewHost creates a host. The handler may be nil initially and set
// later with SetHandler (endpoints are created after topology wiring).
func NewHost(id NodeID, name string) *Host {
	return &Host{id: id, name: name}
}

// ID implements Node.
func (h *Host) ID() NodeID { return h.id }

// Name returns the host's human-readable name.
func (h *Host) Name() string { return h.name }

// SetHandler installs the packet consumer.
func (h *Host) SetHandler(fn func(pkt *Packet)) { h.handler = fn }

// SetOutput attaches the host's (single) output link.
func (h *Host) SetOutput(l *Link) { h.out = l }

// Output returns the host's output link.
func (h *Host) Output() *Link { return h.out }

// Send pushes the packet onto the output link, transferring
// ownership of pooled packets to the network (the link releases drops;
// the consuming endpoint releases deliveries).
func (h *Host) Send(pkt *Packet) {
	if h.out == nil {
		panic(fmt.Sprintf("netsim: host %q has no output link", h.name))
	}
	debugCheckLive(pkt, "host send")
	h.out.Enqueue(pkt)
}

// Deliver implements Node. Ownership of the packet passes to the
// handler, which must release pooled packets once done with them.
func (h *Host) Deliver(pkt *Packet) {
	if h.handler == nil {
		panic(fmt.Sprintf("netsim: host %q has no handler", h.name))
	}
	debugCheckLive(pkt, "host deliver")
	h.handler(pkt)
}
