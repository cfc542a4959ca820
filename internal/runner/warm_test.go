package runner

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"suss/internal/netem"
	"suss/internal/scenarios"
)

// "Reuse is invisible", across Map calls: a Scratch Map's workers put
// back on the idle list runs the next call's cells, on the path or tree
// the last cell wired, exactly as a new Scratch runs them — whatever
// the last call left behind.

// drainIdle empties the idle list, so the next Map worker starts on a
// new Scratch.
func drainIdle() {
	idle.Lock()
	clear(idle.list)
	idle.list = idle.list[:0]
	idle.Unlock()
}

// tap is one cell as it ran: on which Scratch and topology (a
// *netsim.Path or *netsim.Tree), its result, and the events its engine
// fired and the wheel placements they cost.
type tap[R any] struct {
	scr    *Scratch
	topo   any
	Res    R
	Fired  uint64
	Placed uint64
}

// mapDownloads runs jobs the way Run does — each on its worker's
// Scratch, found through ScratchFrom — and taps every cell. A cell that
// panics leaves a zero tap and its error.
func mapDownloads(jobs []Job, workers int) []Outcome[tap[DownloadResult]] {
	return Map(context.Background(), jobs, func(ctx context.Context, _ int, j Job) (tap[DownloadResult], error) {
		return downloadTap(ScratchFrom(ctx), j), nil
	}, Options{Workers: workers})
}

func downloadTap(scr *Scratch, j Job) tap[DownloadResult] {
	c := tap[DownloadResult]{scr: scr}
	hook := j.Impair
	j.Impair = func(env ChaosEnv) {
		c.topo = env.Path
		if hook != nil {
			hook(env)
		}
	}
	c.Res = scr.Download(j)
	c.Fired, c.Placed = scr.sim.Fired, scr.sim.Placed
	return c
}

// mapShards runs fleet shards the way RunFleet does and taps each.
func mapShards(jobs []FleetJob, workers int) []Outcome[tap[ShardResult]] {
	return Map(context.Background(), jobs, func(ctx context.Context, _ int, j FleetJob) (tap[ShardResult], error) {
		return shardTap(ScratchFrom(ctx), j), nil
	}, Options{Workers: workers})
}

func shardTap(scr *Scratch, j FleetJob) tap[ShardResult] {
	c := tap[ShardResult]{scr: scr}
	hook := j.Impair
	j.Impair = func(env FleetChaosEnv) {
		c.topo = env.Tree
		if hook != nil {
			hook(env)
		}
	}
	c.Res = scr.RunFleetShard(j)
	c.Fired, c.Placed = scr.sim.Fired, scr.sim.Placed
	return c
}

// sameAsOneShot fails t unless every cell of outs equals the same cell
// run on a new Scratch: the whole result, events fired and placements.
func sameAsOneShot[T, R any](t *testing.T, what string, items []T, outs []Outcome[tap[R]], oneShot func(*Scratch, T) tap[R]) {
	t.Helper()
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("%s: cell %d: %v", what, i, o.Err)
		}
		want := oneShot(new(Scratch), items[i])
		if got := o.Value; got.Fired != want.Fired || got.Placed != want.Placed || !reflect.DeepEqual(got.Res, want.Res) {
			t.Errorf("%s: cell %d differs from a one-shot run (fired %d vs %d, placed %d vs %d):\nwarm    %+v\none-shot %+v",
				what, i, got.Fired, want.Fired, got.Placed, want.Placed, got.Res, want.Res)
		}
	}
}

// oneScratch fails t unless every cell of every call ran on one
// Scratch.
func oneScratch[R any](t *testing.T, what string, calls ...[]Outcome[tap[R]]) {
	t.Helper()
	scr := calls[0][0].Value.scr
	for k, outs := range calls {
		for i, o := range outs {
			if o.Err == nil && o.Value.scr != scr {
				t.Fatalf("%s: call %d cell %d ran on another Scratch: one worker's Scratch did not outlive its Map call", what, k+1, i)
			}
		}
	}
}

// TestScratchOutlivesMap: two back-to-back one-worker calls of the
// reduced Fig. 11 sweep, then of a fleet, run on the same Scratch and
// the same path or tree, and the second call's cells are one-shot
// cells.
func TestScratchOutlivesMap(t *testing.T) {
	jobs := fig11Matrix(1, fig11ReducedSizes, 1)
	first, second := mapDownloads(jobs, 1), mapDownloads(jobs, 1)
	oneScratch(t, "sweep", first, second)
	if second[0].Value.topo != first[len(first)-1].Value.topo {
		t.Error("sweep: the second call wired a new path instead of resetting the Scratch's")
	}
	sameAsOneShot(t, "sweep, second call", jobs, second, downloadTap)

	var shards []FleetJob
	for s := 0; s < 3; s++ {
		j := testFleetJob(600)
		j.Shards, j.Shard = 3, s
		shards = append(shards, j)
	}
	fleet1, fleet2 := mapShards(shards, 1), mapShards(shards, 1)
	oneScratch(t, "fleet", fleet1, fleet2)
	for i, o := range fleet2 {
		if o.Value.topo != fleet1[0].Value.topo {
			t.Errorf("fleet: shard %d wired a new tree for the same Fleet", i)
		}
	}
	sameAsOneShot(t, "fleet, second call", shards, fleet2, shardTap)
}

// chaosShard makes j an observed shard whose hook attaches netem
// reordering to every aggregation downlink, and an outage to the core.
func chaosShard(j FleetJob) FleetJob {
	j.Observe = true
	j.Impair = func(env FleetChaosEnv) {
		for i, l := range env.Tree.AggDown {
			rng := rand.New(rand.NewSource(env.Seed*31 + int64(i)))
			l.AttachImpairments(netem.NewReorder(0.05, time.Millisecond, 5*time.Millisecond, rng))
		}
		env.Tree.Core.AttachImpairments(&netem.Outage{Windows: []netem.Window{
			{Start: 200 * time.Millisecond, End: 300 * time.Millisecond},
		}})
	}
	return j
}

func TestWarmTopologySequences(t *testing.T) {
	t.Run("chaos shard then plain shard", func(t *testing.T) {
		plain := testFleetJob(600)
		plain.Shards, plain.Shard = 3, 1
		chaos := chaosShard(plain)
		chaos.Shard = 0
		c1 := mapShards([]FleetJob{chaos}, 1)
		if r := c1[0].Value.Res; c1[0].Err != nil || r.Core.OutagePackets == 0 || r.Ledger == nil || r.Ledger.PathOutage == 0 {
			t.Fatalf("the chaos shard did not engage: err %v, %d outage drops, ledger %+v", c1[0].Err, r.Core.OutagePackets, r.Ledger)
		}
		c2 := mapShards([]FleetJob{plain}, 1)
		oneScratch(t, "chaos → plain", c1, c2)
		if c2[0].Value.topo != c1[0].Value.topo {
			t.Fatal("the plain shard did not run on the chaos shard's tree")
		}
		sameAsOneShot(t, "plain shard after a chaos shard", []FleetJob{plain}, c2, shardTap)
		sameAsOneShot(t, "chaos shard", []FleetJob{chaos}, c1, shardTap)
	})

	t.Run("fleet shapes A → B → A", func(t *testing.T) {
		a := testFleetJob(400)
		b := a
		b.Fleet = scenarios.Fleet{Groups: 2, HostsPerGroup: 7, Servers: 2, CoreRate: 5e7, AggRate: 4e7, AccessRate: 2e7,
			RTT: 60 * time.Millisecond, BufferBDP: 0.5, Seed: 5}
		reseeded := a
		reseeded.Fleet.Seed = 99
		var calls [][]Outcome[tap[ShardResult]]
		for k, j := range []FleetJob{a, b, a, reseeded} {
			outs := mapShards([]FleetJob{j}, 1)
			sameAsOneShot(t, []string{"A", "B", "A again", "A reseeded"}[k], []FleetJob{j}, outs, shardTap)
			calls = append(calls, outs)
		}
		oneScratch(t, "A → B → A", calls...)
		topo := func(k int) any { return calls[k][0].Value.topo }
		if topo(1) == topo(0) || topo(2) == topo(1) {
			t.Error("a shard of another shape ran on the last shape's tree")
		}
		if topo(3) != topo(2) {
			t.Error("a Fleet that differs only in its seed wired a new tree")
		}
	})

	t.Run("wired → 4g → wifi → 5g → wired", func(t *testing.T) {
		// The hook's erasures draw from an RNG of its own, seeded from
		// the cell's derived seed.
		erase := func(env ChaosEnv) {
			rng := rand.New(rand.NewSource(env.Seed))
			env.Path.Fwd[1].AttachImpairments(netem.Bernoulli(0.01, rng))
		}
		var calls [][]Outcome[tap[DownloadResult]]
		for k, lt := range []netem.LinkType{netem.Wired, netem.LTE4G, netem.WiFi, netem.NR5G, netem.Wired} {
			jobs := []Job{
				{Scenario: scenarios.New(scenarios.OracleSydney, lt, int64(k)), Algo: Suss, Size: 1 << 20, Impair: erase},
				{Scenario: scenarios.New(scenarios.GoogleTokyo, lt, 3), Algo: BBR, Size: 512 << 10, Observe: true},
			}
			outs := mapDownloads(jobs, 1)
			if outs[0].Value.Res.Drops == 0 {
				t.Errorf("%v: the hook's erasures dropped nothing", lt)
			}
			sameAsOneShot(t, lt.String(), jobs, outs, downloadTap)
			calls = append(calls, outs)
		}
		oneScratch(t, "wired → 4g → wifi → 5g → wired", calls...)
		for k, outs := range calls {
			for i, o := range outs {
				if o.Value.topo != calls[0][0].Value.topo {
					t.Errorf("call %d cell %d wired a new path for a two-hop scenario", k+1, i)
				}
			}
		}
	})

	t.Run("panic and stall, then clean cells", func(t *testing.T) {
		good := Job{Scenario: scenarios.New(scenarios.GoogleTokyo, netem.LTE4G, 3), Algo: Suss, Size: 1 << 20}
		panicky := good
		panicky.Impair = func(env ChaosEnv) { env.Sim.Schedule(40*time.Millisecond, func() { panic("mid-run") }) }
		wedged := good
		wedged.WallLimit = 50 * time.Millisecond
		wedged.Impair = func(env ChaosEnv) {
			var spin func()
			spin = func() { env.Sim.Schedule(0, spin) }
			env.Sim.Schedule(40*time.Millisecond, spin)
		}
		c1 := mapDownloads([]Job{wedged, panicky}, 1)
		if _, ok := c1[1].Err.(*PanicError); !ok || c1[0].Value.Res.Stall == nil {
			t.Fatalf("call 1: want a stall and a captured panic, got %+v and %v", c1[0].Value.Res.Stall, c1[1].Err)
		}
		clean := []Job{good, {Scenario: scenarios.New(scenarios.OracleLondon, netem.Wired, 2), Algo: Cubic, Size: 2 << 20}}
		c2 := mapDownloads(clean, 1)
		oneScratch(t, "panic, stall → clean", c1, c2)
		sameAsOneShot(t, "clean cells after a panic and a stall", clean, c2, downloadTap)

		killed := testFleetJob(400)
		killed.Fleet.CoreRate = 2e7
		killed.WallLimit = 50 * time.Millisecond
		killed.Impair = func(env FleetChaosEnv) {
			var spin func()
			spin = func() { env.Sim.Schedule(0, spin) }
			env.Sim.Schedule(300*time.Millisecond, spin)
		}
		cleanShard := killed
		cleanShard.Shard, cleanShard.WallLimit, cleanShard.Impair = 1, 0, nil
		s1 := mapShards([]FleetJob{killed}, 1)
		if s1[0].Value.Res.Stall == nil {
			t.Fatal("fleet call 1: want a watchdog stall")
		}
		s2 := mapShards([]FleetJob{cleanShard}, 1)
		if s2[0].Value.scr != c2[0].Value.scr || s2[0].Value.topo != s1[0].Value.topo {
			t.Fatal("the clean shard did not run on the killed shard's Scratch and tree")
		}
		sameAsOneShot(t, "clean shard after a killed one", []FleetJob{cleanShard}, s2, shardTap)
	})
}

// TestWarmScratchesConcurrentMaps is the race pass over the idle list:
// two Map calls at a time, two workers each, twice over, take and
// return Scratches concurrently, and every cell still equals its
// one-shot run.
func TestWarmScratchesConcurrentMaps(t *testing.T) {
	jobs := fig11Matrix(7, fig11ReducedSizes, 1)
	shards := make([]FleetJob, 4)
	for s := range shards {
		shards[s] = testFleetJob(400)
		shards[s].Shards, shards[s].Shard = 4, s
	}
	var wg sync.WaitGroup
	var downloads [2][2][]Outcome[tap[DownloadResult]]
	var fleets [2][2][]Outcome[tap[ShardResult]]
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 2; k++ {
				downloads[g][k] = mapDownloads(jobs, 2)
				fleets[g][k] = mapShards(shards, 2)
			}
		}()
	}
	wg.Wait()
	for g := range downloads {
		for k := range downloads[g] {
			sameAsOneShot(t, "concurrent sweep", jobs, downloads[g][k], downloadTap)
			sameAsOneShot(t, "concurrent fleet", shards, fleets[g][k], shardTap)
		}
	}
}

// TestFleetShardOutOfRange: a shard outside [0, Shards) is refused
// through ShardResult.Err before anything runs — no panic, no
// simulation counted.
func TestFleetShardOutOfRange(t *testing.T) {
	for _, shard := range []int{-1, 4, 5} {
		j := testFleetJob(40)
		j.Shards, j.Shard = 4, shard
		before := SimRuns()
		r := RunFleetShard(j)
		if r.Err == nil || !strings.Contains(r.Err.Error(), "out of range [0,4)") {
			t.Errorf("shard %d of 4: want ShardResult.Err naming the range, got %v", shard, r.Err)
		}
		if n := SimRuns() - before; n != 0 || len(r.Flows) != 0 {
			t.Errorf("shard %d of 4: refused shard counted %d runs and simulated %d flows", shard, n, len(r.Flows))
		}
	}
}
