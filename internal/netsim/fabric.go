package netsim

import "fmt"

// Fabric is the topology construction kit the builders in this package
// (linear paths, dumbbells, bottleneck trees) compile onto. It owns
// node-ID allocation, remembers every directed link it wires, and
// derives the static per-destination route tables the routers forward
// by, so a topology only describes its shape — never its routing.
//
// Route compilation is a deterministic breadth-first search per host
// destination: each router's next hop toward a host is the first of
// its outgoing links (in wiring order) that lies on a shortest path.
// All topologies in this package have unique shortest paths, so wiring
// order is a tie-break, not a semantic choice.
type Fabric struct {
	sim    *Simulator
	nextID NodeID

	nodes []Node // insertion order; index = NodeID-1
	hosts []*Host

	// adjacency in wiring order: edges[i] lists node i+1's outgoing
	// links (paired with their destination IDs).
	edges [][]fabricEdge
}

type fabricEdge struct {
	to   NodeID
	link *Link
}

// NewFabric starts an empty fabric on sim.
func NewFabric(sim *Simulator) *Fabric {
	return &Fabric{sim: sim}
}

// Host allocates a leaf node. Hosts carry transport endpoints and have
// exactly one output link (their first outgoing edge).
func (f *Fabric) Host(name string) *Host {
	f.nextID++
	h := NewHost(f.nextID, name)
	f.nodes = append(f.nodes, h)
	f.hosts = append(f.hosts, h)
	f.edges = append(f.edges, nil)
	return h
}

// Router allocates a forwarding node whose route table Compile fills.
func (f *Fabric) Router(name string) *Router {
	f.nextID++
	r := NewRouter(f.nextID, name)
	f.nodes = append(f.nodes, r)
	f.edges = append(f.edges, nil)
	return r
}

// Connect wires a unidirectional link from → to with cfg. A host's
// first connection becomes its output link; a second one panics (hosts
// are single-homed — multihoming would need transport-level routing).
func (f *Fabric) Connect(from, to Node, cfg LinkConfig) *Link {
	l := NewLink(f.sim, cfg, to)
	if h, ok := from.(*Host); ok {
		if h.Output() != nil {
			panic(fmt.Sprintf("netsim: host %q already has an output link", h.Name()))
		}
		h.SetOutput(l)
	}
	fi := int(from.ID()) - 1
	f.edges[fi] = append(f.edges[fi], fabricEdge{to: to.ID(), link: l})
	return l
}

// Duplex wires a link pair between a and b: ab carries a→b and ba
// carries b→a. When ba.Name is empty it defaults to ab.Name + "-rev".
func (f *Fabric) Duplex(a, b Node, ab, ba LinkConfig) (fwd, rev *Link) {
	if ba.Name == "" {
		ba.Name = ab.Name + "-rev"
	}
	return f.Connect(a, b, ab), f.Connect(b, a, ba)
}

// Compile fills every router's route table with the next hop toward
// every host, breadth-first over the wired links. Hosts that cannot
// reach each other simply get no route — forwarding to them panics at
// runtime exactly as an unrouted destination always has.
func (f *Fabric) Compile() {
	n := len(f.nodes)
	// Reverse adjacency once: dist-to-destination search walks edges
	// backwards.
	radj := make([][]int32, n)
	for from, outs := range f.edges {
		for _, e := range outs {
			to := int(e.to) - 1
			radj[to] = append(radj[to], int32(from))
		}
	}
	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	for _, dst := range f.hosts {
		for i := range dist {
			dist[i] = -1
		}
		di := int32(dst.ID()) - 1
		dist[di] = 0
		queue = append(queue[:0], di)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			if v != di {
				// Hosts terminate traffic; only routers forward, so a
				// path may not transit a host.
				if _, isRouter := f.nodes[v].(*Router); !isRouter {
					continue
				}
			}
			for _, u := range radj[v] {
				if dist[u] < 0 {
					dist[u] = dist[v] + 1
					queue = append(queue, u)
				}
			}
		}
		for i, node := range f.nodes {
			r, ok := node.(*Router)
			if !ok || dist[i] < 0 || dist[i] == 0 {
				continue
			}
			for _, e := range f.edges[i] {
				if d := dist[int(e.to)-1]; d >= 0 && d == dist[i]-1 {
					r.AddRoute(dst.ID(), e.link)
					break
				}
			}
		}
	}
}
