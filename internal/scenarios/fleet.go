package scenarios

import (
	"math/rand"
	"time"

	"suss/internal/netsim"
)

// Fleet describes one shard of the population-scale testbed: a shared
// bottleneck tree (server farm → core → aggregation → access leaves)
// that multiplexes a whole flow population over common queues at every
// level. Where the internet matrix gives one flow a private path, a
// fleet shard gives thousands of flows the contention the ROADMAP's
// north star asks about.
type Fleet struct {
	// Tree shape. Clients = Groups × HostsPerGroup.
	Groups        int
	HostsPerGroup int
	Servers       int

	// CoreRate is the shared core bottleneck; AggRate and AccessRate
	// shape the per-group and per-leaf levels. The usual regime is
	// CoreRate < Groups×AggRate (the core is the contended queue) with
	// AccessRate generous enough that leaves rarely bottleneck.
	CoreRate   float64
	AggRate    float64
	AccessRate float64

	// RTT is the base end-to-end propagation round trip (server to
	// leaf); the one-way budget is split core/agg/access as 2:1:1.
	RTT time.Duration
	// BufferBDP sizes every level's queue in multiples of that level's
	// rate × RTT product (floored at 16 KB), mirroring Testbed.
	BufferBDP float64

	// Seed roots the shard's RNG (impairments, workload jitter).
	Seed int64
}

// DefaultFleet is the reference shard: 100 clients in four groups
// behind a 200 Mbps core, 40 ms RTT, one-BDP buffers — enough
// multiplexing that slow-start overshoot from one elephant is visible
// in its neighbors' FCTs.
func DefaultFleet(seed int64) Fleet {
	return Fleet{
		Groups:        4,
		HostsPerGroup: 25,
		Servers:       4,
		CoreRate:      2e8,
		AggRate:       1e8,
		AccessRate:    5e7,
		RTT:           40 * time.Millisecond,
		BufferBDP:     1.0,
		Seed:          seed,
	}
}

// queueFor sizes a queue at BufferBDP × rate·RTT, floored like the
// dumbbell testbed.
func (fl Fleet) queueFor(rate float64) int {
	q := int(fl.BufferBDP * rate / 8 * fl.RTT.Seconds())
	if q < 16<<10 {
		q = 16 << 10
	}
	return q
}

// Build wires the shard's tree into sim. The returned RNG is the
// shard's private stream for impairments and workload perturbation,
// seeded from Fleet.Seed alone.
func (fl Fleet) Build(sim *netsim.Simulator) (*netsim.Tree, *rand.Rand) {
	return netsim.NewTree(sim, fl.Spec()), rand.New(rand.NewSource(fl.Seed))
}

// Spec returns the tree Build wires. It does not depend on Seed, so
// two Fleets equal but for their seeds wire the same tree (Tree.Reset
// restores one).
func (fl Fleet) Spec() netsim.TreeSpec {
	// One-way propagation budget RTT/2, split 2:1:1 over the levels.
	coreDelay := fl.RTT / 4
	aggDelay := fl.RTT / 8
	accessDelay := fl.RTT/2 - coreDelay - aggDelay
	return netsim.TreeSpec{
		Groups:        fl.Groups,
		HostsPerGroup: fl.HostsPerGroup,
		Servers:       fl.Servers,
		Core: netsim.LinkConfig{
			Rate: fl.CoreRate, Delay: coreDelay, QueueBytes: fl.queueFor(fl.CoreRate),
		},
		Agg: netsim.LinkConfig{
			Rate: fl.AggRate, Delay: aggDelay, QueueBytes: fl.queueFor(fl.AggRate),
		},
		Access: netsim.LinkConfig{
			Rate: fl.AccessRate, Delay: accessDelay, QueueBytes: fl.queueFor(fl.AccessRate),
		},
	}
}
