package netsim

import "fmt"

// PathSpec describes a linear sender→receiver path of one or more
// links. ACKs travel the Reverse chain; when Reverse is nil a mirror
// of Forward is used (same rates and delays, generous queues) so that
// the return path is never the bottleneck unless asked for.
type PathSpec struct {
	Forward []LinkConfig
	Reverse []LinkConfig
}

// Path is a wired linear topology: the degenerate one-branch member
// of the topology family Fabric compiles (see Tree for the shared
// bottleneck generalization). One sender, one receiver, a chain of
// links with a mirrored reverse chain through the same routers.
type Path struct {
	Sim      *Simulator
	Sender   *Host
	Receiver *Host
	Fwd      []*Link
	Rev      []*Link
	Routers  []*Router
}

// Bottleneck returns the forward link with the lowest configured fixed
// rate; links using rate models are compared by their rate at time 0.
func (p *Path) Bottleneck() *Link {
	var best *Link
	for _, l := range p.Fwd {
		if best == nil || l.RateAt(0) < best.RateAt(0) {
			best = l
		}
	}
	return best
}

// NewPath wires the linear topology
//
//	sender → fwd[0] → R0 → fwd[1] → … → fwd[n-1] → receiver
//
// with the mirrored reverse chain through the same routers. Routes are
// compiled by the fabric; on a chain they are the unique next hops.
func NewPath(sim *Simulator, spec PathSpec) *Path {
	n := len(spec.Forward)
	if n == 0 {
		panic("netsim: NewPath needs at least one forward link")
	}
	if spec.Reverse != nil && len(spec.Reverse) != n {
		panic("netsim: reverse chain must have the same number of links as forward")
	}

	p := &Path{Sim: sim}
	f := NewFabric(sim)
	p.Sender = f.Host("sender")
	p.Receiver = f.Host("receiver")
	for i := 0; i < n-1; i++ {
		p.Routers = append(p.Routers, f.Router(fmt.Sprintf("r%d", i)))
	}

	// Forward chain: sender → r0 → … → receiver.
	p.Fwd = make([]*Link, n)
	for i := 0; i < n; i++ {
		var from, to Node = p.Sender, p.Receiver
		if i > 0 {
			from = p.Routers[i-1]
		}
		if i < n-1 {
			to = p.Routers[i]
		}
		p.Fwd[i] = f.Connect(from, to, spec.Forward[i])
	}
	// Reverse chain: receiver → r(n-2) → … → sender.
	p.Rev = make([]*Link, n)
	for i := 0; i < n; i++ {
		var from, to Node = p.Receiver, p.Sender
		if i > 0 {
			from = p.Routers[n-1-i]
		}
		if i < n-1 {
			to = p.Routers[n-2-i]
		}
		p.Rev[i] = f.Connect(from, to, spec.reverse(i, ""))
	}
	f.Compile()
	return p
}

// reverse returns the config of reverse link i (receiver side first):
// Reverse[i], or the ACK mirror of the forward link it pairs with, which
// keeps the name was when it is the mirror's (see ackMirror).
func (spec PathSpec) reverse(i int, was string) LinkConfig {
	if spec.Reverse != nil {
		return spec.Reverse[i]
	}
	return ackMirror(spec.Forward[len(spec.Forward)-1-i], was)
}

// Reset turns p into the path NewPath(p.Sim, spec) wires, reusing its
// hosts, routers, links and routes: every link takes its config from
// spec, with NewLink's validation and defaults, and is otherwise back
// in its just-built state (see Link.reset). spec must have as many
// hops as p. The engine is not reset here: packets the links forget
// belong to its pool, which Simulator.Reset reclaims.
func (p *Path) Reset(spec PathSpec) {
	n := len(p.Fwd)
	if len(spec.Forward) != n || (spec.Reverse != nil && len(spec.Reverse) != n) {
		panic(fmt.Sprintf("netsim: Path.Reset of a %d-hop path to a %d-hop spec", n, len(spec.Forward)))
	}
	for i, l := range p.Fwd {
		l.reset(spec.Forward[i])
	}
	for i, l := range p.Rev {
		l.reset(spec.reverse(i, l.Name()))
	}
}

// DumbbellSpec describes the classic n-pair dumbbell: n servers on the
// left, n clients on the right, two routers joined by a shared
// bottleneck. Data flows server→client.
type DumbbellSpec struct {
	Pairs int
	// Access configures every access link, server and client side, in
	// both directions; it should be much faster than the bottleneck.
	// PairDelay may override it per pair to give flows different
	// minRTTs.
	Access LinkConfig
	// PairDelay, when non-nil, returns pair i's access config in place
	// of Access: it applies to all four of the pair's access links
	// (server up and down, client up and down). Nil means Access
	// everywhere.
	PairDelay func(i int) LinkConfig
	// Bottleneck configures the shared R1→R2 link (and its mirror).
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

// NewDumbbell wires the topology. Every server i sends to client i.
func NewDumbbell(sim *Simulator, spec DumbbellSpec) *Dumbbell {
	if spec.Pairs <= 0 {
		panic("netsim: dumbbell needs at least one pair")
	}
	d := &Dumbbell{}
	f := NewFabric(sim)

	d.Left = f.Router("left")
	d.Right = f.Router("right")

	bcfg := spec.Bottleneck
	if bcfg.Name == "" {
		bcfg.Name = "bottleneck"
	}
	d.Bottleneck, _ = f.Duplex(d.Left, d.Right, bcfg, ackMirror(bcfg, ""))

	for i := 0; i < spec.Pairs; i++ {
		srv := f.Host(fmt.Sprintf("server%d", i))
		cli := f.Host(fmt.Sprintf("client%d", i))
		d.Servers = append(d.Servers, srv)
		d.Clients = append(d.Clients, cli)

		acc := spec.Access
		if spec.PairDelay != nil {
			acc = spec.PairDelay(i)
		}
		if acc.Name == "" {
			acc.Name = fmt.Sprintf("access%d", i)
		}

		// Server up, client down, client up, server down.
		for _, e := range [4]struct {
			from, to Node
			dir      string
		}{{srv, d.Left, "srv-up"}, {d.Right, cli, "cli-down"}, {cli, d.Right, "cli-up"}, {d.Left, srv, "srv-down"}} {
			c := acc
			c.Name = acc.Name + "-" + e.dir
			f.Connect(e.from, e.to, c)
		}
	}
	f.Compile()
	return d
}
