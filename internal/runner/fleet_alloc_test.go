package runner

import (
	"runtime"
	"testing"

	"suss/internal/netsim"
)

// fleetShardAllocFloor is the fewest mallocs one replay of shard 0 of
// testFleetJob(800) — 400 flows, serial, fully seeded — has been seen
// to make on an engine of its own. Each demux map's overflow buckets
// depend on Go's per-map hash seed (30 uncached processes read
// 11 377–11 379), so the budget is the floor plus 64. A change that
// legitimately moves the floor edits this one number.
const fleetShardAllocFloor = 11377

// TestFleetShardAllocBudget is the alloc gate of the population hot
// path (part of `make allocgate`): a regression in tree forwarding or
// the population plumbing is per flow, so it shows up ×400.
func TestFleetShardAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates")
	}
	j := testFleetJob(800) // 2 shards → 400 flows in shard 0
	var sim *netsim.Simulator
	j.Impair = func(env FleetChaosEnv) { sim = env.Sim }
	got := minMallocs(6, func() {
		r := RunFleetShard(j)
		if n := r.Completed(); n != len(r.Flows) {
			t.Fatalf("only %d/%d flows completed", n, len(r.Flows))
		}
	})
	t.Logf("min mallocs over 6 replays: %d (floor %d); %d events fired; engine grew to %d timer slots, %d packets in %d slabs",
		got, fleetShardAllocFloor, sim.Fired, sim.ArenaSlots, sim.PoolPackets, sim.PoolSlabs)
	if budget := uint64(fleetShardAllocFloor + 64); got > budget {
		t.Fatalf("400-flow shard replay made %d mallocs, budget %d", got, budget)
	}
}

// minMallocs returns the fewest heap allocations any one of runs calls
// to f made, process-wide: the minimum discards whatever the runtime
// and test harness allocated alongside.
func minMallocs(runs int, f func()) uint64 {
	best := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if d := after.Mallocs - before.Mallocs; d < best {
			best = d
		}
	}
	return best
}
