package netsim

import "fmt"

// TreeSpec describes a shared-bottleneck tree: leaf access links
// feeding per-group aggregation links feeding one core bottleneck,
// with server hosts on the trunk side. It is the fleet-scale
// generalization of the linear Path — a population of clients
// multiplexed over common queues at every level instead of one flow
// on a private chain. Data flows server → client (download); every
// level is wired as a duplex pair so ACKs climb a mirrored reverse
// tree.
//
//	servers ⇄ trunk ⇄(core)⇄ root ⇄(agg g)⇄ agg[g] ⇄(access g.h)⇄ clients
//
// A one-server, one-group, one-host tree degenerates to exactly the
// linear three-hop path; the Path builder remains the two-level
// special case the figure experiments pin their outputs on.
type TreeSpec struct {
	// Groups is the number of aggregation routers.
	Groups int
	// HostsPerGroup is the number of client leaves under each
	// aggregation router.
	HostsPerGroup int
	// Servers is the number of server hosts on the trunk side
	// (default 1). Flows from every server share the core bottleneck.
	Servers int

	// Core configures the trunk→root link — the shared core
	// bottleneck in the congested (download) direction. Its mirror
	// carries ACKs with a generous queue.
	Core LinkConfig
	// Agg configures each root→agg[g] aggregation link.
	Agg LinkConfig
	// Access configures each agg[g]→client leaf link.
	Access LinkConfig
}

// Tree is the wired topology. Slices are indexed the way the spec
// reads: AggDown[g] for groups, AccessDown[c] for the flattened
// client index c = g*HostsPerGroup + h.
type Tree struct {
	Sim  *Simulator
	Spec TreeSpec

	Servers []*Host
	Clients []*Host // flattened: c = g*HostsPerGroup + h

	Trunk *Router   // server-side router, upstream of the core link
	Root  *Router   // client-side core router
	Aggs  []*Router // one per group

	Core       *Link // trunk→root, the shared bottleneck
	CoreRev    *Link // root→trunk (ACK path)
	AggDown    []*Link
	AggUp      []*Link
	AccessDown []*Link
	AccessUp   []*Link
	SrvUp      []*Link // server→trunk
	SrvDown    []*Link // trunk→server
}

// ackMirror derives the reverse-direction config for a duplex level:
// same rate, delay and impairment stages (the stages and their RNG are
// shared), a queue generous enough that the ACK path is never the
// bottleneck, and the name cfg.Name+"-rev". was is the reverse link's name before a reset ("" for
// a new link); it is kept when it already is that name, so rewiring to
// unchanged names builds no string.
func ackMirror(cfg LinkConfig, was string) LinkConfig {
	rc := cfg
	rc.Name = was
	if n := len(cfg.Name); len(was) != n+4 || was[:n] != cfg.Name || was[n:] != "-rev" {
		rc.Name = cfg.Name + "-rev"
	}
	rc.QueueBytes = 4 << 20
	return rc
}

// NewTree wires the topology and installs every router's routes. The
// trunk sends to a server on its SrvDown link and to every client on the
// core; the root sends to every server on CoreRev and to a client on its
// group's AggDown link; an aggregation router sends to its own clients
// on their AccessDown links and to every other host on its AggUp link.
func NewTree(sim *Simulator, spec TreeSpec) *Tree {
	if spec.Groups <= 0 || spec.HostsPerGroup <= 0 {
		panic("netsim: tree needs at least one group and one host per group")
	}
	if spec.Servers <= 0 {
		spec.Servers = 1
	}
	core := spec.Core
	if core.Name == "" {
		core.Name = "core"
	}
	// Each server⇄trunk edge runs at 4× the core rate with no extra
	// delay, so the server farm is never the bottleneck.
	srv := LinkConfig{Rate: 4 * core.Rate, QueueBytes: 64 << 20}
	if srv.Rate <= 0 && core.RateModel != nil {
		srv.Rate = 4 * core.RateModel(0)
	}

	t := &Tree{Sim: sim, Spec: spec}
	var id ids
	t.Trunk = id.router("trunk")
	t.Root = id.router("root")
	for g := 0; g < spec.Groups; g++ {
		t.Aggs = append(t.Aggs, id.router(fmt.Sprintf("agg%d", g)))
	}
	for s := 0; s < spec.Servers; s++ {
		t.Servers = append(t.Servers, id.host(fmt.Sprintf("server%d", s)))
	}
	for g := 0; g < spec.Groups; g++ {
		for h := 0; h < spec.HostsPerGroup; h++ {
			t.Clients = append(t.Clients, id.host(fmt.Sprintf("client%d.%d", g, h)))
		}
	}

	for s, host := range t.Servers {
		cfg := srv
		cfg.Name = fmt.Sprintf("srv%d", s)
		up, down := NewLink(sim, cfg, t.Trunk), NewLink(sim, ackMirror(cfg, ""), host)
		host.SetOutput(up)
		t.SrvUp = append(t.SrvUp, up)
		t.SrvDown = append(t.SrvDown, down)
	}
	t.Core, t.CoreRev = NewLink(sim, core, t.Root), NewLink(sim, ackMirror(core, ""), t.Trunk)
	for g := 0; g < spec.Groups; g++ {
		cfg := spec.Agg
		if cfg.Name == "" {
			cfg.Name = fmt.Sprintf("agg%d", g)
		}
		down, up := NewLink(sim, cfg, t.Aggs[g]), NewLink(sim, ackMirror(cfg, ""), t.Root)
		t.AggDown = append(t.AggDown, down)
		t.AggUp = append(t.AggUp, up)
		for h := 0; h < spec.HostsPerGroup; h++ {
			acc := spec.Access
			if acc.Name == "" {
				acc.Name = fmt.Sprintf("access%d.%d", g, h)
			}
			cli := t.Clients[g*spec.HostsPerGroup+h]
			adown, aup := NewLink(sim, acc, cli), NewLink(sim, ackMirror(acc, ""), t.Aggs[g])
			cli.SetOutput(aup)
			t.AccessDown = append(t.AccessDown, adown)
			t.AccessUp = append(t.AccessUp, aup)
		}
	}

	for s, host := range t.Servers {
		t.Trunk.AddRoute(host.ID(), t.SrvDown[s])
		t.Root.AddRoute(host.ID(), t.CoreRev)
		for g, agg := range t.Aggs {
			agg.AddRoute(host.ID(), t.AggUp[g])
		}
	}
	for c, cli := range t.Clients {
		g := c / spec.HostsPerGroup
		t.Trunk.AddRoute(cli.ID(), t.Core)
		t.Root.AddRoute(cli.ID(), t.AggDown[g])
		for a, agg := range t.Aggs {
			if a == g {
				agg.AddRoute(cli.ID(), t.AccessDown[c])
			} else {
				agg.AddRoute(cli.ID(), t.AggUp[a])
			}
		}
	}
	return t
}

// Reset puts every link of t back in its just-built state (see
// Link.reset) under the config it was built with: t is then the tree
// NewTree(t.Sim, t.Spec) wires, hosts, routers and routes included. The
// engine is not reset here: packets the links forget belong to its
// pool, which Simulator.Reset reclaims.
func (t *Tree) Reset() {
	for _, ls := range [][]*Link{t.SrvUp, t.SrvDown, t.AggDown, t.AggUp, t.AccessDown, t.AccessUp} {
		for _, l := range ls {
			l.reset(l.cfg)
		}
	}
	t.Core.reset(t.Core.cfg)
	t.CoreRev.reset(t.CoreRev.cfg)
}

// NumClients returns the number of client leaves.
func (t *Tree) NumClients() int { return len(t.Clients) }
