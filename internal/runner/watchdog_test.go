package runner

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"suss/internal/workload"
)

// fakeEngine lets the watchdog tests observe exactly which predicate is
// installed while Run executes and after RunGuarded returns.
type fakeEngine struct {
	pred    func() bool
	inRun   func(pred func() bool)
	pending int
}

func (f *fakeEngine) Run(until time.Duration) time.Duration {
	if f.inRun != nil {
		f.inRun(f.pred)
	}
	return until
}
func (f *fakeEngine) Pending() int              { return f.pending }
func (f *fakeEngine) StopWhen(pred func() bool) { f.pred = pred }
func (f *fakeEngine) StopPred() func() bool     { return f.pred }

// TestRunGuardedComposesCallerPredicate is the unit half of the
// StopWhen-clobbering regression: a caller-installed stop condition
// must keep firing while the watchdog is armed, and must still be
// installed after RunGuarded returns.
func TestRunGuardedComposesCallerPredicate(t *testing.T) {
	callerFired := false
	callerCalls := 0
	caller := func() bool { callerCalls++; return callerFired }

	eng := &fakeEngine{}
	eng.StopWhen(caller)
	eng.inRun = func(pred func() bool) {
		if pred == nil {
			t.Fatal("watchdog installed no predicate")
		}
		if pred() {
			t.Error("composed predicate fired with neither side true")
		}
		callerFired = true
		if !pred() {
			t.Error("composed predicate ignored the caller's stop condition")
		}
	}
	if _, err := RunGuarded(eng, nil, time.Second, time.Hour); err != nil {
		t.Fatalf("unexpected stall: %v", err)
	}
	if callerCalls == 0 {
		t.Fatal("caller predicate was never consulted: it was clobbered")
	}
	// The caller's predicate must be restored, not cleared: firing it
	// again must still work through whatever is installed now.
	if eng.pred == nil {
		t.Fatal("caller predicate cleared after RunGuarded returned")
	}
	callerFired = false
	if eng.pred() {
		t.Error("restored predicate disagrees with caller state (false)")
	}
	callerFired = true
	if !eng.pred() {
		t.Error("restored predicate disagrees with caller state (true)")
	}
}

// TestRunGuardedNoCallerPredicate pins the pre-existing behavior: with
// no caller predicate the watchdog still arms, and a nil predicate is
// restored on return.
func TestRunGuardedNoCallerPredicate(t *testing.T) {
	eng := &fakeEngine{}
	eng.inRun = func(pred func() bool) {
		if pred == nil {
			t.Fatal("watchdog installed no predicate")
		}
		if pred() {
			t.Error("predicate fired before the wall budget expired")
		}
	}
	if _, err := RunGuarded(eng, nil, time.Second, time.Hour); err != nil {
		t.Fatalf("unexpected stall: %v", err)
	}
	if eng.pred != nil {
		t.Error("nil caller predicate not restored")
	}
}

// TestRunGuardedPanicStopsTimer: a Run that panics, as the wedged and
// killed shards' do, leaves no timer armed behind it. The predicate the
// run was given must still read false once the wall budget has passed.
func TestRunGuardedPanicStopsTimer(t *testing.T) {
	const wall = 20 * time.Millisecond
	var pred func() bool
	eng := &fakeEngine{inRun: func(p func() bool) {
		pred = p
		panic("engine blew up")
	}}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("RunGuarded swallowed the engine's panic")
			}
		}()
		RunGuarded(eng, nil, time.Second, wall)
	}()
	time.Sleep(5 * wall)
	if pred == nil || pred() {
		t.Fatal("the panicked run's watchdog timer fired after RunGuarded returned")
	}
}

// TestFleetShardWallLimitKeepsEarlyExit is the end-to-end regression
// from the issue: a wall-limited single-sim fleet shard must stop at
// population completion, not silently simulate the full horizon, and
// its records must be identical to the unguarded run.
func TestFleetShardWallLimitKeepsEarlyExit(t *testing.T) {
	base := testFleetJob(150)
	base.Shards = 1

	unguarded := RunFleetShard(base)
	if got := unguarded.Completed(); got != len(unguarded.Flows) {
		t.Fatalf("baseline shard incomplete: %d/%d flows", got, len(unguarded.Flows))
	}

	guarded := base
	guarded.WallLimit = 5 * time.Minute // generous: must never expire here
	g := RunFleetShard(guarded)
	if g.Stall != nil {
		t.Fatalf("healthy shard reported a stall: %v", g.Stall)
	}

	horizon := workload.Horizon(base.Pop.Shard(0, 1), DefaultHorizon)
	if g.SimEnd >= horizon {
		t.Fatalf("wall-limited shard ran to the horizon (%v): early-exit predicate was clobbered", g.SimEnd)
	}
	if g.SimEnd != unguarded.SimEnd {
		t.Errorf("SimEnd differs: guarded %v vs unguarded %v", g.SimEnd, unguarded.SimEnd)
	}
	if !reflect.DeepEqual(g.Flows, unguarded.Flows) {
		t.Error("flow records differ between guarded and unguarded runs")
	}
	if g.Core != unguarded.Core || g.JainGoodput != unguarded.JainGoodput {
		t.Error("aggregates differ between guarded and unguarded runs")
	}
}

// TestFleetShardDegenerateFleet: a zero-valued Fleet must come back as
// a descriptive error, not an integer-divide-by-zero panic swallowed by
// the pool's panic capture.
func TestFleetShardDegenerateFleet(t *testing.T) {
	j := FleetJob{Pop: testPop(10), Shards: 1}
	r := RunFleetShard(j)
	if r.Err == nil {
		t.Fatal("degenerate fleet produced no error")
	}
	for _, want := range []string{"degenerate fleet", "groups=0", "servers=0"} {
		if !strings.Contains(r.Err.Error(), want) {
			t.Errorf("error %q does not mention %q", r.Err, want)
		}
	}
	if len(r.Flows) != 0 {
		t.Error("degenerate shard fabricated flow records")
	}

	// Partial degeneracy (servers only) must be caught too.
	j2 := testFleetJob(10)
	j2.Fleet.Servers = 0
	if r2 := RunFleetShard(j2); r2.Err == nil {
		t.Error("zero-server fleet produced no error")
	}
}

// TestRunFleetPropagatesDegenerateError: the pool path surfaces the
// setup error on every shard instead of a panic-shaped failure.
func TestRunFleetPropagatesDegenerateError(t *testing.T) {
	j := FleetJob{Pop: testPop(12), Shards: 2}
	res := RunFleet(context.Background(), j, Options{Workers: 2})
	if len(res) != 2 {
		t.Fatalf("got %d shard results, want 2", len(res))
	}
	for i, r := range res {
		if r.Err == nil {
			t.Fatalf("shard %d: degenerate fleet error not propagated", i)
		}
		if _, isPanic := r.Err.(*PanicError); isPanic {
			t.Fatalf("shard %d: degenerate fleet still surfaces as a panic: %v", i, r.Err)
		}
		if !strings.Contains(r.Err.Error(), "degenerate fleet") {
			t.Errorf("shard %d: error %q is not descriptive", i, r.Err)
		}
	}
}
