package runner

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"suss/internal/core"
	"suss/internal/netsim"
)

// skipAllocCount skips a test that counts mallocs on a build whose
// count is not the program's own.
func skipAllocCount(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race runtime allocates")
	}
	if debugSequester {
		t.Skip("sussdebug: the pool sequesters released packets, every Get allocates")
	}
}

// fleetShardAllocs is the number of mallocs one replay of shard 0 of
// testFleetJob(800) — 400 flows, serial, fully seeded — makes on a
// Scratch of its own: a cold engine and a cold flow slab. No map is
// left on the packet path, so the count is exact (30 uncached
// processes read one number) and the gate is an equality. A change
// that legitimately moves the count edits this one number.
const fleetShardAllocs = 5831

// fleetShardFired and fleetShardPlaced are the events that replay
// fires and the timing-wheel placements they cost (netsim.Simulator
// Fired and Placed). Fired is the behaviour: it moves only with the
// results. Placed is the scheduler's work, and moves when the way events
// are armed does. The warm replay must read the same two numbers.
const (
	fleetShardFired  = 130077
	fleetShardPlaced = 144238
)

// TestFleetShardAllocBudget is the alloc gate of the population hot
// path (part of `make allocgate`): a regression in tree forwarding or
// the population plumbing is per flow, so it shows up ×400.
func TestFleetShardAllocBudget(t *testing.T) {
	skipAllocCount(t)
	j := testFleetJob(800) // 2 shards → 400 flows in shard 0
	var sim *netsim.Simulator
	j.Impair = func(env FleetChaosEnv) { sim = env.Sim }
	got := minMallocs(6, func() {
		r := RunFleetShard(j)
		if n := r.Completed(); n != len(r.Flows) {
			t.Fatalf("only %d/%d flows completed", n, len(r.Flows))
		}
	})
	t.Logf("min mallocs over 6 replays: %d (want %d); %d events fired in %d placements, %d cascades; engine grew to %d timer slots, %d packets in %d slabs",
		got, fleetShardAllocs, sim.Fired, sim.Placed, sim.Cascades, sim.ArenaSlots, sim.PoolPackets, sim.PoolSlabs)
	if got != fleetShardAllocs {
		t.Errorf("400-flow shard replay made %d mallocs, want exactly %d", got, fleetShardAllocs)
	}
	checkShardWork(t, sim)
}

// checkShardWork holds one replay of the 400-flow shard to its pinned
// events fired and wheel placements.
func checkShardWork(t *testing.T, sim *netsim.Simulator) {
	t.Helper()
	if sim.Fired != fleetShardFired || sim.Placed != fleetShardPlaced {
		t.Errorf("400-flow shard replay fired %d events in %d placements, want exactly %d in %d",
			sim.Fired, sim.Placed, fleetShardFired, fleetShardPlaced)
	}
}

// warmFleetShardAllocs is the number of mallocs the same shard makes
// on a Scratch that has run it before, whose engine, flow slab and tree
// are grown: what is left is the shard's flow list and the result (a
// slot's flow and its controller are reset in place, the tree and its
// demuxes with them). The constant has no per-flow term, so one
// allocation added to a flow's set-up shows ×400.
const warmFleetShardAllocs = 6

// TestWarmFleetShardAllocBudget is the alloc gate of warm flows (part
// of `make allocgate`).
func TestWarmFleetShardAllocBudget(t *testing.T) {
	skipAllocCount(t)
	j := testFleetJob(800)
	var scr Scratch
	scr.RunFleetShard(j) // grows the engine and the slab
	got := minMallocs(6, func() {
		if r := scr.RunFleetShard(j); r.Completed() != len(r.Flows) {
			t.Fatalf("only %d/%d flows completed", r.Completed(), len(r.Flows))
		}
	})
	t.Logf("min mallocs over 6 warm replays: %d (want %d); %d flows in the slab; %d events fired in %d placements",
		got, warmFleetShardAllocs, len(scr.slots), scr.sim.Fired, scr.sim.Placed)
	if got != warmFleetShardAllocs {
		t.Errorf("warm 400-flow shard replay made %d mallocs, want exactly %d", got, warmFleetShardAllocs)
	}
	checkShardWork(t, scr.sim)
}

// TestFleetSussOptBuildsOneController: a shard whose SussOpt spells
// out SUSS's defaults is the shard with SussOpt unset — the same
// result, the same events fired and the same mallocs, so no flow
// builds a default controller only to replace it.
func TestFleetSussOptBuildsOneController(t *testing.T) {
	j := testFleetJob(800)
	opt := core.DefaultOptions()
	withOpt := j
	withOpt.SussOpt = &opt
	a, b := runShard(nil, j), runShard(nil, withOpt)
	if a.Fired != b.Fired || !reflect.DeepEqual(a.Res, b.Res) {
		t.Fatalf("SussOpt = defaults changed the shard (fired %d vs %d)", b.Fired, a.Fired)
	}
	skipAllocCount(t)
	unset := minMallocs(3, func() { RunFleetShard(j) })
	set := minMallocs(3, func() { RunFleetShard(withOpt) })
	t.Logf("mallocs: %d with SussOpt unset, %d with it set to the defaults", unset, set)
	if set != unset {
		t.Fatalf("SussOpt = defaults made %d mallocs, %d without it", set, unset)
	}
}

// minMallocs returns the fewest heap allocations any one of runs calls
// to f made, process-wide: the minimum discards whatever the runtime
// and test harness allocated alongside. The collector is off while it
// measures: a collection empties every sync.Pool (fmt's printer cache,
// which the topologies' link names use), and the refill would land in
// one process's count and not in another's.
func minMallocs(runs int, f func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
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
