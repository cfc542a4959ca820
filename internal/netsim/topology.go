package netsim

import "fmt"

// PathSpec describes a linear sender→receiver path of one or more
// links. ACKs travel a mirror of Forward (same rates, delays and
// impairment stages, generous queues; see ackMirror) so that the return
// path is never the bottleneck.
type PathSpec struct {
	Forward []LinkConfig
}

// Path is a wired linear topology: the degenerate one-branch member of
// the topology family (see Tree for the shared bottleneck
// generalization). One sender, one receiver, a chain of links with a
// mirrored reverse chain through the same routers.
type Path struct {
	Sim      *Simulator
	Sender   *Host
	Receiver *Host
	Fwd      []*Link
	Rev      []*Link
	Routers  []*Router
}

// ids hands out node IDs in wiring order from 1. Packets carry the IDs
// and frames encode them as addresses, so NewPath, NewDumbbell and
// NewTree each allocate their nodes in one fixed order.
type ids NodeID

func (n *ids) host(name string) *Host {
	*n++
	return NewHost(NodeID(*n), name)
}

func (n *ids) router(name string) *Router {
	*n++
	return NewRouter(NodeID(*n), name)
}

// NewPath wires the linear topology
//
//	sender → fwd[0] → R0 → fwd[1] → … → fwd[n-1] → receiver
//
// with the mirrored reverse chain through the same routers. Router i
// sends toward the receiver on fwd[i+1] and toward the sender on the
// reverse link that leaves it.
func NewPath(sim *Simulator, spec PathSpec) *Path {
	n := len(spec.Forward)
	if n == 0 {
		panic("netsim: NewPath needs at least one forward link")
	}

	p := &Path{Sim: sim}
	var id ids
	p.Sender = id.host("sender")
	p.Receiver = id.host("receiver")
	for i := 0; i < n-1; i++ {
		p.Routers = append(p.Routers, id.router(fmt.Sprintf("r%d", i)))
	}

	// Forward chain: sender → r0 → … → receiver.
	p.Fwd = make([]*Link, n)
	for i := range p.Fwd {
		var to Node = p.Receiver
		if i < n-1 {
			to = p.Routers[i]
		}
		p.Fwd[i] = NewLink(sim, spec.Forward[i], to)
	}
	// Reverse chain: receiver → r(n-2) → … → sender.
	p.Rev = make([]*Link, n)
	for i := range p.Rev {
		var to Node = p.Sender
		if i < n-1 {
			to = p.Routers[n-2-i]
		}
		p.Rev[i] = NewLink(sim, ackMirror(spec.Forward[n-1-i], ""), to)
	}
	p.Sender.SetOutput(p.Fwd[0])
	p.Receiver.SetOutput(p.Rev[0])
	for i, r := range p.Routers {
		r.AddRoute(p.Receiver.ID(), p.Fwd[i+1])
		r.AddRoute(p.Sender.ID(), p.Rev[n-1-i])
	}
	return p
}

// Reset turns p into the path NewPath(p.Sim, spec) wires, reusing its
// hosts, routers, links and routes: every link takes its config from
// spec, with NewLink's validation and defaults, and is otherwise back
// in its just-built state (see Link.reset). spec must have as many
// hops as p. The engine is not reset here: packets the links forget
// belong to its pool, which Simulator.Reset reclaims.
func (p *Path) Reset(spec PathSpec) {
	n := len(p.Fwd)
	if len(spec.Forward) != n {
		panic(fmt.Sprintf("netsim: Path.Reset of a %d-hop path to a %d-hop spec", n, len(spec.Forward)))
	}
	for i, l := range p.Fwd {
		l.reset(spec.Forward[i])
	}
	for i, l := range p.Rev {
		l.reset(ackMirror(spec.Forward[n-1-i], l.Name()))
	}
}

// DumbbellSpec describes the classic dumbbell: one server on the left
// and one client on the right per pair, two routers joined by a shared
// bottleneck. Data flows server→client.
type DumbbellSpec struct {
	// Access holds one config per pair: it applies to all four of the
	// pair's access links (server up and down, client up and down) and
	// should be much faster than the bottleneck. An empty name becomes
	// "access<i>".
	Access []LinkConfig
	// Bottleneck configures the shared left→right link (and its mirror).
	Bottleneck LinkConfig
}

// Dumbbell is the constructed topology: a Tree with a single
// aggregation level collapsed away — two routers, one shared queue.
type Dumbbell struct {
	Servers    []*Host
	Clients    []*Host
	Left       *Router // server side
	Right      *Router // client side
	Bottleneck *Link   // left→right, the congested direction
}

// NewDumbbell wires the topology. Every server i sends to client i. The
// left router sends to a server on its srv-down link and to every client
// on the bottleneck; the right router sends to a client on its cli-down
// link and to every server on the bottleneck's mirror.
func NewDumbbell(sim *Simulator, spec DumbbellSpec) *Dumbbell {
	if len(spec.Access) == 0 {
		panic("netsim: dumbbell needs at least one pair")
	}
	d := &Dumbbell{}
	var id ids
	d.Left = id.router("left")
	d.Right = id.router("right")

	bcfg := spec.Bottleneck
	if bcfg.Name == "" {
		bcfg.Name = "bottleneck"
	}
	d.Bottleneck = NewLink(sim, bcfg, d.Right)
	mirror := NewLink(sim, ackMirror(bcfg, ""), d.Left)

	for i, acc := range spec.Access {
		srv := id.host(fmt.Sprintf("server%d", i))
		cli := id.host(fmt.Sprintf("client%d", i))
		d.Servers = append(d.Servers, srv)
		d.Clients = append(d.Clients, cli)
		if acc.Name == "" {
			acc.Name = fmt.Sprintf("access%d", i)
		}
		access := func(dir string, to Node) *Link {
			c := acc
			c.Name = acc.Name + "-" + dir
			return NewLink(sim, c, to)
		}
		// Server up, client down, client up, server down.
		srv.SetOutput(access("srv-up", d.Left))
		d.Right.AddRoute(cli.ID(), access("cli-down", cli))
		cli.SetOutput(access("cli-up", d.Right))
		d.Left.AddRoute(srv.ID(), access("srv-down", srv))
		d.Left.AddRoute(cli.ID(), d.Bottleneck)
		d.Right.AddRoute(srv.ID(), mirror)
	}
	return d
}
