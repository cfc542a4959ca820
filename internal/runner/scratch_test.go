package runner

import (
	"context"
	"reflect"
	"testing"
	"time"

	"suss/internal/core"
	"suss/internal/netem"
	"suss/internal/netsim"
	"suss/internal/obs"
	"suss/internal/scenarios"
)

// "A reused engine is a fresh engine", held end to end: every cell of
// the Fig. 11 matrix run on a worker's warm Scratch must equal the same
// cell run one-shot on an engine of its own — the whole result, and the
// number of events the engine fired, which is a stronger identity than
// the result (two different event histories can fold to equal totals).

var (
	fig11Sizes        = []int64{256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20, 12 << 20}
	fig11ReducedSizes = []int64{512 << 10, 2 << 20}
)

// fig11Matrix mirrors experiments.Fig11Jobs, which this package cannot
// import: Tokyo × four last hops × sizes × three algorithms × iters.
// The seven sizes at three iterations are the 252 cells bench's
// fig11_sweep runs; the two reduced sizes at one, the 24 of the alloc
// budgets.
func fig11Matrix(seed int64, sizes []int64, iters int) []Job {
	var jobs []Job
	for li, lt := range []netem.LinkType{netem.NR5G, netem.Wired, netem.WiFi, netem.LTE4G} {
		sc := scenarios.New(scenarios.GoogleTokyo, lt, seed+int64(li))
		for _, size := range sizes {
			for _, algo := range []Algo{BBR, Suss, Cubic} {
				for it := 0; it < iters; it++ {
					jobs = append(jobs, Job{Scenario: sc, Algo: algo, Size: size, Iter: it})
				}
			}
		}
	}
	return jobs
}

// cell is what one run of one job left behind: its result, how many
// events the engine fired for it and, for a pooled run, the engine.
type cell struct {
	Res   DownloadResult
	Fired uint64
	sim   *netsim.Simulator
}

// tapped returns jobs whose Impair hook — which changes nothing about
// the simulation — reports the engine the cell is running on, so the
// caller can read its counters once the cell has returned.
func tapped(jobs []Job, cur **netsim.Simulator) []Job {
	out := make([]Job, len(jobs))
	for i, j := range jobs {
		j.Impair = func(env ChaosEnv) { *cur = env.Sim }
		out[i] = j
	}
	return out
}

// freshCells runs every job one-shot, each on an engine of its own
// (which it does not keep: 252 grown engines are 100 MB).
func freshCells(jobs []Job) []cell {
	var cur, prev *netsim.Simulator
	out := make([]cell, len(jobs))
	for i, j := range tapped(jobs, &cur) {
		out[i].Res = Download(j)
		out[i].Fired = cur.Fired
		if cur == prev {
			panic("runner: two one-shot Downloads shared an engine")
		}
		prev = cur
	}
	return out
}

// reusedCells runs the jobs through Run on one worker: the progress
// callback runs on that worker between cells, while the engine still
// holds the counters of the cell that just finished.
func reusedCells(jobs []Job) []cell {
	var cur *netsim.Simulator
	out := make([]cell, 0, len(jobs))
	res := Run(context.Background(), tapped(jobs, &cur), Options{Workers: 1, Progress: func(done, _ int) {
		out = append(out, cell{Fired: cur.Fired, sim: cur})
	}})
	for i := range out {
		out[i].Res = res[i].DownloadResult
	}
	return out
}

// freshFig11 memoizes the one-shot reference per (seed, observed): the
// serial and the two-worker differentials share it.
var freshFig11 = map[[2]int64][]cell{}

func diffMatrix(seed int64, observe bool) (jobs []Job, fresh []cell) {
	sizes := fig11Sizes
	if testing.Short() || raceEnabled {
		sizes = fig11ReducedSizes // the race runtime is ~10× slower
	}
	jobs = fig11Matrix(seed, sizes, 3)
	key := [2]int64{seed, 0}
	if observe {
		key[1] = 1
		for i := range jobs {
			jobs[i].Observe = true
		}
	}
	if freshFig11[key] == nil {
		freshFig11[key] = freshCells(jobs)
	}
	return jobs, freshFig11[key]
}

func reversed[T any](in []T) []T {
	out := make([]T, len(in))
	for i, v := range in {
		out[len(in)-1-i] = v
	}
	return out
}

func TestReusedEngineIsFreshEngine(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		for _, v := range []struct {
			name             string
			reverse, observe bool
		}{
			{"in order", false, false},
			{"reversed", true, false}, // what ran before must not matter
			{"observed", false, true},
		} {
			jobs, fresh := diffMatrix(seed, v.observe)
			if v.reverse {
				jobs, fresh = reversed(jobs), reversed(fresh)
			}
			got := reusedCells(jobs)
			if len(got) != len(jobs) {
				t.Fatalf("seed %d %s: %d cells reported, want %d", seed, v.name, len(got), len(jobs))
			}
			for i := range got {
				if got[i].sim != got[0].sim {
					t.Fatalf("seed %d %s: cell %d did not run on the worker's engine", seed, v.name, i)
				}
				if !got[i].Res.Completed || (v.observe && got[i].Res.Ledger == nil) {
					t.Fatalf("seed %d %s: cell %d (%s) incomplete or unobserved", seed, v.name, i, jobs[i].describe())
				}
				if got[i].Fired != fresh[i].Fired {
					t.Errorf("seed %d %s: cell %d (%s) fired %d events on the reused engine, %d on a fresh one",
						seed, v.name, i, jobs[i].describe(), got[i].Fired, fresh[i].Fired)
				}
				if !reflect.DeepEqual(got[i].Res, fresh[i].Res) {
					t.Errorf("seed %d %s: cell %d (%s) differs:\nreused %+v\nfresh  %+v",
						seed, v.name, i, jobs[i].describe(), got[i].Res, fresh[i].Res)
				}
			}
		}
	}
}

// TestReusedEngineTwoWorkers is the differential `make race` runs for
// its own sake: two workers, two scratches, nothing shared.
func TestReusedEngineTwoWorkers(t *testing.T) {
	jobs, fresh := diffMatrix(1, false)
	res := Run(context.Background(), jobs, Options{Workers: 2})
	for i, r := range res {
		if r.Err != nil || !reflect.DeepEqual(r.DownloadResult, fresh[i].Res) {
			t.Errorf("cell %d (%s) differs at two workers (err %v):\npooled %+v\nfresh  %+v",
				i, jobs[i].describe(), r.Err, r.DownloadResult, fresh[i].Res)
		}
	}
}

// shardCell is one run of one fleet shard: its result and how many
// events the engine fired for it.
type shardCell struct {
	Res   ShardResult
	Fired uint64
}

// runShard runs j on scr (nil: one-shot, on an engine of its own).
func runShard(scr *Scratch, j FleetJob) shardCell {
	var sim *netsim.Simulator
	j.Impair = func(env FleetChaosEnv) { sim = env.Sim }
	if scr == nil {
		scr = new(Scratch)
	}
	return shardCell{Res: scr.RunFleetShard(j), Fired: sim.Fired}
}

// TestReusedEngineFleet: "a reused flow is a fresh flow". One Scratch
// runs the shards of every controller's fleet in order, reversed and
// interleaved — so a slot's last flow was a different controller's, a
// larger or smaller one, observed or not — and every shard equals the
// same shard run one-shot, in result and in events fired.
func TestReusedEngineFleet(t *testing.T) {
	algos := []Algo{Cubic, Suss, BBR, Reno, CubicHSPP, BBR2, BBRSuss}
	var jobs []FleetJob
	for _, algo := range algos {
		for shard := 0; shard < 3; shard++ {
			j := testFleetJob(600)
			j.Algo, j.Shards, j.Shard = algo, 3, shard
			j.Observe = shard == 1
			jobs = append(jobs, j)
		}
	}
	fresh := make([]shardCell, len(jobs))
	for i, j := range jobs {
		fresh[i] = runShard(nil, j)
		if r := fresh[i].Res; r.Err != nil || r.Completed() != len(r.Flows) || (r.Ledger != nil) != j.Observe {
			t.Fatalf("%s: err %v, %d/%d flows complete, ledger %v", j.describe(), r.Err, r.Completed(), len(r.Flows), r.Ledger != nil)
		}
	}
	var inOrder, interleaved []int // interleaved is shard-major: every controller's shard 0, then shard 1 …
	for i := range jobs {
		inOrder = append(inOrder, i)
		interleaved = append(interleaved, 3*(i%len(algos))+i/len(algos))
	}
	for _, order := range []struct {
		name string
		idx  []int
	}{
		{"in order", inOrder},
		{"reversed", reversed(inOrder)},
		{"interleaved", interleaved},
	} {
		var scr Scratch
		for _, i := range order.idx {
			got := runShard(&scr, jobs[i])
			if got.Fired != fresh[i].Fired {
				t.Errorf("%s: %s fired %d events on the reused scratch, %d on a fresh one",
					order.name, jobs[i].describe(), got.Fired, fresh[i].Fired)
			}
			if !reflect.DeepEqual(got.Res, fresh[i].Res) {
				t.Errorf("%s: %s differs between the reused scratch and a fresh one", order.name, jobs[i].describe())
			}
		}
	}
}

// controllerCells are Download cells over every controller
// configuration: the seven algorithms and SUSS under each ablation and
// a larger Kmax, each unobserved and then observed. A NoPacing SUSS
// cell runs right before a default one and BBR+SUSS right before BBR,
// so reversed the other way round too. CUBIC's last hop is one where
// HyStart ends its slow start: that exit is the one write a CUBIC
// controller makes to its recorder.
func controllerCells() []Job {
	suss := func(set func(*core.Options)) *core.Options {
		o := core.DefaultOptions()
		set(&o)
		return &o
	}
	cfgs := []struct {
		algo Algo
		opt  *core.Options
		hop  netem.LinkType
	}{
		{Cubic, nil, netem.WiFi},
		{CubicHSPP, nil, netem.LTE4G},
		{Suss, suss(func(o *core.Options) { o.NoPacing = true }), netem.Wired},
		{Suss, nil, netem.NR5G},
		{Suss, suss(func(o *core.Options) { o.PaceEverything = true }), netem.WiFi},
		{Suss, suss(func(o *core.Options) { o.NoGuard = true }), netem.LTE4G},
		{Suss, suss(func(o *core.Options) { o.Kmax = 2 }), netem.Wired},
		{Suss, suss(func(o *core.Options) { o.Kmax = 3 }), netem.NR5G},
		{BBRSuss, nil, netem.Wired},
		{BBR, nil, netem.LTE4G},
		{BBR2, nil, netem.WiFi},
		{Reno, nil, netem.NR5G},
	}
	var jobs []Job
	for i, c := range cfgs {
		sc := scenarios.New(scenarios.OracleSydney, c.hop, int64(i))
		for _, observe := range []bool{false, true} {
			jobs = append(jobs, Job{Scenario: sc, Algo: c.algo, SussOpt: c.opt, Size: 1 << 20, Observe: observe})
		}
	}
	return jobs
}

// controllerCell is one run of a controllerCells job: its result,
// events fired, and the flow recorder's counters when observed.
type controllerCell struct {
	Res      DownloadResult
	Fired    uint64
	Counters obs.FlowCounters
}

// runControllerCell runs j on scr and returns the cell and its
// recorder (nil unless observed).
func runControllerCell(scr *Scratch, j Job) (controllerCell, *obs.FlowRecorder) {
	var env ChaosEnv
	j.Impair = func(e ChaosEnv) { env = e }
	c := controllerCell{Res: scr.Download(j), Fired: env.Sim.Fired}
	if env.Rec != nil {
		c.Counters = env.Rec.C
	}
	return c, env.Rec
}

// TestReusedControllers: "a reset controller is a new one", end to end.
// One Scratch runs controllerCells forward and then reversed in slot 0,
// and every cell equals the same cell on a new Scratch in result,
// events fired and flight-recorder counters. No cell's recorder moves
// once its cell is over: a controller reused by a later cell writes to
// that cell's recorder only.
func TestReusedControllers(t *testing.T) {
	jobs := controllerCells()
	fresh := make([]controllerCell, len(jobs))
	for i, j := range jobs {
		fresh[i], _ = runControllerCell(new(Scratch), j)
		if r := fresh[i].Res; !r.Completed || (j.Algo == Suss && r.MaxG == 0) {
			t.Fatalf("%s: completed %v, max G %d", j.describe(), r.Completed, r.MaxG)
		}
	}
	type done struct {
		rec *obs.FlowRecorder
		c   obs.FlowCounters
	}
	var observed []done
	var scr Scratch
	order := make([]int, 0, 2*len(jobs))
	for i := range jobs {
		order = append(order, i)
	}
	for _, i := range append(order, reversed(order)...) {
		got, rec := runControllerCell(&scr, jobs[i])
		if !reflect.DeepEqual(got, fresh[i]) {
			t.Errorf("%s observed=%v (SussOpt %+v) differs on the reused scratch:\nreused %+v\nfresh  %+v",
				jobs[i].describe(), jobs[i].Observe, jobs[i].SussOpt, got, fresh[i])
		}
		if rec != nil {
			observed = append(observed, done{rec, got.Counters})
		}
	}
	for k, o := range observed {
		if o.rec.C != o.c {
			t.Errorf("observed cell %d's recorder moved after its cell:\nthen %+v\nnow  %+v", k, o.c, o.rec.C)
		}
	}
}

// TestScratchSurvivesPanicAndStall: a worker's engine abandoned
// mid-run — by a callback panic Map recovers, by the watchdog with
// events still queued — runs the next cell exactly as a fresh one does.
func TestScratchSurvivesPanicAndStall(t *testing.T) {
	good := Job{Scenario: scenarios.New(scenarios.GoogleTokyo, netem.LTE4G, 3), Algo: Suss, Size: 1 << 20}
	want := freshCells([]Job{good})[0]

	var cur *netsim.Simulator
	panicky := good
	panicky.Impair = func(env ChaosEnv) {
		cur = env.Sim
		env.Sim.Schedule(40*time.Millisecond, func() { panic("mid-run") })
	}
	wedged := good
	wedged.WallLimit = 50 * time.Millisecond
	wedged.Impair = func(env ChaosEnv) {
		cur = env.Sim
		// Livelock with the flow's packets and timers in flight.
		var spin func()
		spin = func() { env.Sim.Schedule(0, spin) }
		env.Sim.Schedule(40*time.Millisecond, spin)
	}
	tap := tapped([]Job{good}, &cur)[0]

	var cells []cell
	res := Run(context.Background(), []Job{panicky, tap, wedged, tap}, Options{Workers: 1, Progress: func(int, int) {
		cells = append(cells, cell{Fired: cur.Fired, sim: cur})
	}})
	if _, ok := res[0].Err.(*PanicError); !ok {
		t.Fatalf("cell 0: want a captured panic, got %v", res[0].Err)
	}
	if res[2].Stall == nil || res[2].Stall.Pending == 0 {
		t.Fatalf("cell 2: want a watchdog stall with events pending, got %+v", res[2].Stall)
	}
	if res[2].Stall.Desc != wedged.describe() {
		t.Errorf("cell 2: stall describes %q, want %q", res[2].Stall.Desc, wedged.describe())
	}
	for _, i := range []int{1, 3} {
		if cells[i].sim != cells[0].sim {
			t.Fatalf("cell %d did not run on the worker's engine", i)
		}
		if res[i].Err != nil || cells[i].Fired != want.Fired || !reflect.DeepEqual(res[i].DownloadResult, want.Res) {
			t.Errorf("cell %d, after an abandoned run, differs from fresh (err %v, fired %d vs %d):\nreused %+v\nfresh  %+v",
				i, res[i].Err, cells[i].Fired, want.Fired, res[i].DownloadResult, want.Res)
		}
	}

	// The flow slab, on one scratch. Besides results and events, every
	// slot a cell used must pass the scoreboard audit afterwards, which
	// also holds the ring zero outside the window: stale slots there are
	// never read, so only the audit sees a reset that leaves them.
	var scr Scratch
	audit := func(what string, n int) {
		for i, sl := range scr.slots[:n] {
			if p := sl.flow.Sender.AuditScoreboard(); len(p) > 0 {
				t.Errorf("%s: slot %d fails the scoreboard audit: %v", what, i, p)
			}
		}
	}
	// A 12 MB cell grows slot 0's scoreboard and SACK sets far past what
	// the 256 KB cell after it needs.
	big, small := good, good
	big.Size, small.Size = 12<<20, 256<<10
	wantSmall := freshCells([]Job{small})[0]
	if r := scr.Download(big); !r.Completed {
		t.Fatal("12 MB cell did not complete")
	}
	if got := scr.Download(small); scr.sim.Fired != wantSmall.Fired || !reflect.DeepEqual(got, wantSmall.Res) {
		t.Errorf("256 KB cell after a 12 MB one differs from fresh (fired %d vs %d):\nreused %+v\nfresh  %+v",
			scr.sim.Fired, wantSmall.Fired, got, wantSmall.Res)
	}
	audit("256 KB cell", 1)

	// A fleet shard killed by the watchdog on a congested core leaves
	// its slots mid-window: scoreboards holding lost and retransmitted
	// segments, SACK and reassembly ranges, armed timers. The next shard
	// on the same scratch must still run as on a fresh one. It is the
	// other half of the population, so its flows do not retrace the
	// killed ones' segments slot for slot.
	killed := testFleetJob(400)
	killed.Fleet.CoreRate = 2e7
	clean := killed
	clean.Shard = 1
	killed.WallLimit = 50 * time.Millisecond
	killed.Impair = func(env FleetChaosEnv) {
		var spin func()
		spin = func() { env.Sim.Schedule(0, spin) }
		env.Sim.Schedule(300*time.Millisecond, spin)
	}
	if r := scr.RunFleetShard(killed); r.Stall == nil || r.Stall.Pending == 0 {
		t.Fatalf("fleet: want a watchdog stall with events pending, got %+v", r.Stall)
	} else if r.Stall.Desc != killed.describe() {
		t.Errorf("fleet: stall describes %q, want %q", r.Stall.Desc, killed.describe())
	}
	dirty := 0
	for _, sl := range scr.slots[:len(killed.Pop.Shard(0, killed.Shards))] {
		if s := sl.flow.Sender; !s.Finished() && s.Inflight() > 0 && s.Stats().Retransmissions > 0 {
			dirty++
		}
	}
	if dirty == 0 {
		t.Fatal("fleet: the kill left no flow mid-window after a retransmission; the case checks nothing")
	}
	if got, want := runShard(&scr, clean), runShard(nil, clean); got.Fired != want.Fired || !reflect.DeepEqual(got.Res, want.Res) {
		t.Errorf("fleet: the shard after a killed one differs from fresh (fired %d vs %d)", got.Fired, want.Fired)
	}
	audit("fleet shard after a killed one", len(clean.Pop.Shard(1, clean.Shards)))
}

// TestScratchFromOutsideMap: off the pool there is no worker scratch;
// the caller gets a new one each time and the cell is a one-shot run.
func TestScratchFromOutsideMap(t *testing.T) {
	a, b := ScratchFrom(context.Background()), ScratchFrom(context.Background())
	if a == nil || a == b {
		t.Fatal("want a new Scratch per call outside Map")
	}
	var seen [2]*Scratch
	Map(context.Background(), []int{0, 1}, func(ctx context.Context, i, _ int) (int, error) {
		seen[i] = ScratchFrom(ctx)
		if seen[i] != ScratchFrom(ctx) {
			t.Error("a worker's Scratch changed between calls")
		}
		return 0, nil
	}, Options{Workers: 1})
	if seen[0] == nil || seen[0] != seen[1] {
		t.Fatal("one worker, two items: want the same Scratch for both")
	}
}

// warmCellAllocs is the number of heap allocations a warm pass of the
// reduced Fig. 11 sweep makes per cell on an engine, flow slot and path
// that have already grown: none. The slot's controller, the path (its
// reverse links' names included), the spec's link configs, the last
// hop's netem models and the RNG are all reset in place, and the result
// is a value. The gate is an equality over the 24 cells, so one
// allocation in any cell fails it.
const warmCellAllocs = 0

// TestWarmCellAllocBudget is the alloc gate of per-cell set-up (part of
// `make allocgate`): the second pass of the reduced sweep through one
// worker's scratch, when pool, arena and flow growth are gone.
func TestWarmCellAllocBudget(t *testing.T) {
	skipAllocCount(t)
	jobs := fig11Matrix(1, fig11ReducedSizes, 1)
	var scr Scratch
	var fired uint64
	pass := func() {
		fired = 0
		for _, j := range jobs {
			if r := scr.Download(j); !r.Completed {
				t.Fatalf("%s did not complete", j.describe())
			}
			fired += scr.sim.Fired
		}
	}
	pass() // grows the engine
	got := minMallocs(6, pass)
	t.Logf("min mallocs over 6 warm passes: %d (want %d per cell); %d events fired per pass; engine grew to %d timer slots, %d packets in %d slabs",
		got, warmCellAllocs, fired, scr.sim.ArenaSlots, scr.sim.PoolPackets, scr.sim.PoolSlabs)
	if want := uint64(warmCellAllocs * len(jobs)); got != want {
		t.Fatalf("warm pass of %d cells made %d mallocs, want exactly %d (%d per cell)", len(jobs), got, want, warmCellAllocs)
	}
}

// coldSweepAllocs is the number of mallocs one single-worker Run of
// the reduced Fig. 11 sweep at seed 1 makes on a new Scratch: the first
// cells grow the engine, the flow slot and the path. The idle list is
// drained first, so the worker cannot start warm; the count is exact
// and the gate an equality, like the warm pass the root package pins
// (TestFig11SerialSweepAllocBudget).
const coldSweepAllocs = 146

// TestColdSweepAllocBudget is the alloc gate of cold growth (part of
// `make allocgate`), which the warm pins no longer see.
func TestColdSweepAllocBudget(t *testing.T) {
	skipAllocCount(t)
	jobs := fig11Matrix(1, fig11ReducedSizes, 1)
	got := minMallocs(6, func() {
		drainIdle()
		for _, r := range Run(context.Background(), jobs, Options{Workers: 1}) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
	})
	t.Logf("min mallocs over 6 cold passes: %d (want %d)", got, coldSweepAllocs)
	if got != coldSweepAllocs {
		t.Errorf("cold pass of the reduced sweep made %d mallocs, want exactly %d", got, coldSweepAllocs)
	}
}
