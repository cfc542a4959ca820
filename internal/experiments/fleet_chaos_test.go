package experiments

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"suss/internal/netem"
	"suss/internal/runner"
)

// chaosImpair is the fleet chaos hook the CI cell runs: netem-style
// reordering on every aggregation downlink (per-link RNGs derived from
// the shard seed, so the schedule is deterministic) plus a 150 ms hard
// outage on the core bottleneck in the middle of the arrival window —
// every flow in flight at that moment loses its path and must recover.
func chaosImpair(env runner.FleetChaosEnv) {
	for i, l := range env.Tree.AggDown {
		rng := rand.New(rand.NewSource(env.Seed*31 + int64(i)*7919 + 13))
		l.AttachImpairments(netem.NewReorder(0.02, time.Millisecond, 5*time.Millisecond, rng))
	}
	env.Tree.Core.AttachImpairments(&netem.Outage{Windows: []netem.Window{
		{Start: 300 * time.Millisecond, End: 450 * time.Millisecond},
	}})
}

// TestFleetChaos runs the population comparison with impairments
// composed onto the tree links — the chaos-in-CI cell: a fleet under
// reordering and a mid-run access outage must not stall, must not
// error, and must still complete (nearly) every flow under the
// wall-clock watchdog; flows caught in the outage recover by
// retransmission instead of hanging the shard.
func TestFleetChaos(t *testing.T) {
	fc := FleetConfig{
		Flows:       600,
		Shards:      2,
		ArrivalRate: 300,
		Mix:         SmokeMix(),
		Seed:        5,
	}.Normalized()
	jobs := FleetJobs(fc)

	var shards [2][]runner.FleetResult
	for variant := range jobs {
		jobs[variant].Impair = chaosImpair
		jobs[variant].WallLimit = 2 * time.Minute
		shards[variant] = runner.RunFleet(context.Background(), jobs[variant], runner.Options{})
	}
	res := FleetFromShards(fc, shards, false)

	for _, err := range res.Errs {
		t.Errorf("shard failed under chaos: %v", err)
	}
	for variant := 0; variant < 2; variant++ {
		for _, sr := range shards[variant] {
			if sr.Stall != nil {
				t.Errorf("variant %d shard %d stalled: %v", variant, sr.Shard, sr.Stall)
			}
		}
		if lim := fc.Flows / 20; res.Incomplete[variant] > lim {
			t.Errorf("variant %d left %d/%d flows incomplete under chaos, want <= %d (95%% completion)",
				variant, res.Incomplete[variant], fc.Flows, lim)
		}
	}

	// The impairments must actually have engaged: the core outage shows
	// up in the per-cause link stats, and the same variant run on clean
	// links finishes the population with a different outcome.
	outage := 0
	for _, sr := range shards[0] {
		outage += sr.Core.OutagePackets
	}
	if outage == 0 {
		t.Error("core outage dropped no packets — the chaos hook did not engage")
	}
	clean := runner.RunFleet(context.Background(), FleetJobs(fc)[0], runner.Options{})
	if sig(shards[0]) == sig(clean) {
		t.Error("impaired and clean runs are identical — the chaos hook did not engage")
	}
	t.Logf("fleet chaos: incomplete off/on = %d/%d, core outage drops = %d",
		res.Incomplete[0], res.Incomplete[1], outage)
}

// sig folds a variant's flow records into a comparable fingerprint.
func sig(shards []runner.FleetResult) int64 {
	var s int64
	for _, sr := range shards {
		s += int64(sr.TotalDataDrops) * 1000003
		for _, f := range sr.Flows {
			s += int64(f.FCT) + int64(f.Retrans)*31
		}
	}
	return s
}
