package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Class buckets a flow by the application archetype that generated it.
// The fleet experiment reports FCT distributions per class: SUSS's
// headline claim is about Web/RPC mice, while Video elephants dominate
// the bytes that congest the shared tree.
type Class uint8

const (
	// Web is a page/object fetch: heavy-tailed small transfers, the
	// population SUSS targets.
	Web Class = iota
	// RPC is a datacenter-style request/response: small and tightly
	// concentrated, typically one or two windows of data.
	RPC
	// Video is a streaming chunk: large, dominating bytes and queue
	// occupancy at the bottleneck.
	Video
	numClasses
)

// String implements fmt.Stringer for reports and CSV headers.
func (c Class) String() string {
	switch c {
	case Web:
		return "web"
	case RPC:
		return "rpc"
	case Video:
		return "video"
	}
	return fmt.Sprintf("class%d", uint8(c))
}

// Classes lists all flow classes in report order.
func Classes() []Class { return []Class{Web, RPC, Video} }

// ClassMix is one component of a population: a flow class, its share
// of arrivals, and the size distribution its flows draw from.
type ClassMix struct {
	Class  Class
	Weight float64
	Sizes  SizeDist
}

// DefaultMix returns the three-class population used by the fleet
// experiment: mice-dominated arrivals (most flows are web objects and
// RPCs) with a video-chunk class that carries most of the bytes — the
// regime the paper's motivation measures on campus traffic.
func DefaultMix() []ClassMix {
	return []ClassMix{
		{Class: Web, Weight: 0.70, Sizes: WebMix()},
		{Class: RPC, Weight: 0.20, Sizes: Lognormal{
			Mu: math.Log(4 << 10), Sigma: 0.8, Min: 512, Max: 256 << 10,
		}},
		{Class: Video, Weight: 0.10, Sizes: BoundedPareto{
			Alpha: 1.1, Min: 2 << 20, Max: 64 << 20,
		}},
	}
}

// ArrivalDist generates flow inter-arrival gaps: the process that
// spaces a population in time.
type ArrivalDist interface {
	// NextGap samples the gap to the next arrival.
	NextGap(rng *rand.Rand) time.Duration
	// Name identifies the process in reports.
	Name() string
}

// PoissonArrivals is the memoryless arrival process: exponential gaps
// with the given mean rate per second.
type PoissonArrivals struct {
	Rate float64 // mean arrivals per second
}

// NextGap implements ArrivalDist.
func (p PoissonArrivals) NextGap(rng *rand.Rand) time.Duration {
	return time.Duration(rng.ExpFloat64() / p.Rate * float64(time.Second))
}

// Name implements ArrivalDist.
func (p PoissonArrivals) Name() string { return "poisson" }

// LognormalArrivals models burstier-than-Poisson user behavior:
// log-normal gaps (think-time style clustering) with median gap
// exp(Mu) seconds and shape Sigma.
type LognormalArrivals struct {
	Mu, Sigma float64 // parameters of ln(gap seconds)
	// MaxGap clamps pathological tail samples; zero means 10× the
	// median.
	MaxGap time.Duration
}

// NextGap implements ArrivalDist.
func (l LognormalArrivals) NextGap(rng *rand.Rand) time.Duration {
	gap := time.Duration(math.Exp(l.Mu+float64(l.Sigma*rng.NormFloat64())) * float64(time.Second))
	max := l.MaxGap
	if max <= 0 {
		max = time.Duration(10 * math.Exp(l.Mu) * float64(time.Second))
	}
	if gap > max {
		gap = max
	}
	if gap < 0 {
		gap = 0
	}
	return gap
}

// Name implements ArrivalDist.
func (l LognormalArrivals) Name() string { return "lognormal" }

// PopulationSpec describes a fleet-scale flow population
// deterministically: same spec + same seed ⇒ the same flows, on any
// machine, at any shard count.
type PopulationSpec struct {
	// Flows is the total population size across all shards.
	Flows int
	// Arrivals spaces the flows in time (per shard — shards are
	// independent trees, so each runs its own arrival process).
	Arrivals ArrivalDist
	// Mix is the class mixture; weights need not sum to 1. Empty means
	// DefaultMix.
	Mix []ClassMix
	// Seed roots all randomness. Shard seeds are derived from it, so
	// regenerating any one shard never needs the others.
	Seed int64
	// Start offsets the first arrival of every shard.
	Start time.Duration
}

// FlowSpec is one generated flow of a shard's population.
type FlowSpec struct {
	// ID is unique within the shard and stable across regenerations.
	ID    int
	Class Class
	// Size is the transfer size in bytes.
	Size int64
	// Start is the flow's arrival time.
	Start time.Duration
}

// shardSeed derives an independent RNG stream per shard. The mixing
// constants match the runner's per-job scheme: any fixed odd
// multiplier decorrelates adjacent shards under Go's rand source.
func (p PopulationSpec) shardSeed(shard int) int64 {
	return p.Seed*1000003 + int64(shard)*7919 + 1
}

// ShardFlows returns how many of the population's flows land in the
// given shard: Flows/nshards each, with the remainder spread over the
// first shards so totals always sum to Flows.
func (p PopulationSpec) ShardFlows(shard, nshards int) int {
	n := p.Flows / nshards
	if shard < p.Flows%nshards {
		n++
	}
	return n
}

// Shard generates the flow population of one shard. Generation is
// deterministic in (spec, shard, nshards) alone: each shard draws from
// its own derived RNG stream, so shards can be generated concurrently,
// in any order, or in isolation, and always produce identical flows.
func (p PopulationSpec) Shard(shard, nshards int) []FlowSpec {
	if nshards <= 0 {
		panic("workload: population needs at least one shard")
	}
	if shard < 0 || shard >= nshards {
		panic(fmt.Sprintf("workload: shard %d out of range [0,%d)", shard, nshards))
	}
	mix := p.Mix
	if len(mix) == 0 {
		mix = DefaultMix()
	}
	var totalW float64
	for _, m := range mix {
		totalW += m.Weight
	}
	if totalW <= 0 {
		panic("workload: population mix has no weight")
	}
	arrivals := p.Arrivals
	if arrivals == nil {
		arrivals = PoissonArrivals{Rate: 100}
	}

	rng := rand.New(rand.NewSource(p.shardSeed(shard)))
	n := p.ShardFlows(shard, nshards)
	flows := make([]FlowSpec, n)
	at := p.Start
	for i := range flows {
		at += arrivals.NextGap(rng)
		u := rng.Float64() * totalW
		m := mix[len(mix)-1]
		for _, cand := range mix {
			if u < cand.Weight {
				m = cand
				break
			}
			u -= cand.Weight
		}
		flows[i] = FlowSpec{
			ID:    i,
			Class: m.Class,
			Size:  m.Sizes.Sample(rng),
			Start: at,
		}
	}
	return flows
}

// ClassCount tallies a generated shard by class.
func ClassCount(flows []FlowSpec) map[Class]int {
	out := make(map[Class]int, numClasses)
	for _, f := range flows {
		out[f.Class]++
	}
	return out
}

// Horizon returns a conservative end-of-interest time for a shard: the
// last arrival plus slack. Callers use it to bound simulated time when
// a stuck flow would otherwise run the simulator dry.
func Horizon(flows []FlowSpec, slack time.Duration) time.Duration {
	var last time.Duration
	for _, f := range flows {
		if f.Start > last {
			last = f.Start
		}
	}
	return last + slack
}
