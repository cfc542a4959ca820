package netsim

// PacketPool is the packet store of one Simulator: slabs of Packets
// handed out in address order, plus a free list of released ones. The
// simulator is single-threaded, so the pool needs no locking, and
// because recycling only ever reuses memory — never changes what is
// scheduled when — pooling cannot perturb event order (see DESIGN.md
// "Memory reuse").
//
// Ownership rules:
//   - the component that acquires a packet (a transport endpoint)
//     owns it until it hands it to the network via Host.Send;
//   - a Link (and its Qdisc) owns every packet it has queued, is
//     serializing or holds on its in-flight line, and releases packets
//     it drops (tail drop, AQM drop, random wire loss) once the drop
//     is counted and recorded. Queues are threaded through the packets
//     themselves (Packet.next), so a packet is in at most one queue at
//     a time, and Get hands a packet out with no queue link set;
//   - delivery transfers ownership to the destination node: routers
//     pass it to the next link, endpoints release it when they finish
//     processing (tcp.Receiver.Handle, tcp.Sender.HandleAck, and the
//     Demux for unroutable flows).
//
// Every acquired packet is therefore released exactly once. Under the
// sussdebug build tag the pool verifies this: double releases and
// touching a released packet panic, and released packets are
// sequestered (never recycled) so stale pointers cannot be
// revalidated by reuse.
//
// Growth and lives. Get serves a released packet, else the next
// never-used one, growing by a slab only when every slab is used up.
// Simulator.Reset drops the free list and restarts at the first packet,
// so a reused pool hands packets out in a fresh one's address order
// (DESIGN.md "Memory reuse" gives the measured reason).
type PacketPool struct {
	// slabs are kept for as long as the pool is; this life has opened
	// the first `opened` of them, and fresh is what it has not handed out
	// yet of the last one it opened.
	slabs  [][]Packet
	opened int
	fresh  []Packet
	// used counts the packets this life took from the slabs; peak is its
	// high-water mark over every life.
	used, peak int

	free  []*Packet
	stats PoolStats
}

const (
	// slabMin is the first slab's size, slabMax every slab's from the
	// fourth on. A one-segment download touches two packets; starting at
	// slabMax would charge it 16 KB of zeroed memory for them.
	slabMin = 8
	slabMax = 64
)

// PoolStats counts pool traffic. Acquired − Released is the number of
// packets currently owned by some component; at the end of a drained
// simulation it must be zero (the leak-check tests pin this).
type PoolStats struct {
	// Acquired counts Get calls.
	Acquired int64
	// Released counts effective Release calls.
	Released int64
	// Recycled counts Gets served a previously released packet (from
	// the free list) rather than a never-used one.
	Recycled int64
}

// Outstanding returns the packets acquired but not yet released.
func (st PoolStats) Outstanding() int64 { return st.Acquired - st.Released }

// Stats returns a copy of the pool counters.
func (pp *PacketPool) Stats() PoolStats { return pp.stats }

// Get returns a zeroed packet owned by the caller. It recycles a
// released packet when one is available and takes a never-used one
// from the slabs otherwise, so a steady-state simulation stops
// allocating once the pool has grown to the peak number of packets
// simultaneously in flight.
func (pp *PacketPool) Get() *Packet {
	pp.stats.Acquired++
	var p *Packet
	if n := len(pp.free); n > 0 {
		p = pp.free[n-1]
		pp.free[n-1] = nil
		pp.free = pp.free[:n-1]
		pp.stats.Recycled++
	} else {
		if len(pp.fresh) == 0 {
			pp.nextSlab()
		}
		p, pp.fresh = &pp.fresh[0], pp.fresh[1:]
		if pp.used++; pp.used > pp.peak {
			pp.peak = pp.used
		}
	}
	*p = Packet{pool: pp}
	return p
}

// nextSlab opens the next slab this life has not touched, allocating
// one when every slab is used up.
func (pp *PacketPool) nextSlab() {
	if pp.opened == len(pp.slabs) {
		n := slabMax
		if pp.opened < 3 {
			n = slabMin << pp.opened
		}
		pp.slabs = append(pp.slabs, make([]Packet, n))
	}
	pp.fresh = pp.slabs[pp.opened]
	pp.opened++
}

// reset starts a new life (see the type comment): every slab packet is
// available again, lowest address first, whether or not the last life
// released it, and the traffic counters restart. peak is kept.
func (pp *PacketPool) reset() {
	pp.free = pp.free[:0]
	pp.opened, pp.fresh, pp.used = 0, nil, 0
	pp.stats = PoolStats{}
}

// Release returns the packet to its pool. Packets built with a
// literal (no pool) and nil packets are ignored, so callers can
// release unconditionally. Releasing the same packet twice is a
// lifecycle bug: it is detected (panic) under the sussdebug build
// tag, and must be assumed to corrupt the free list otherwise.
func (p *Packet) Release() {
	if p == nil || p.pool == nil {
		return
	}
	debugRelease(p)
	p.pool.stats.Released++
	if !debugSequester {
		p.pool.free = append(p.pool.free, p)
	}
}
