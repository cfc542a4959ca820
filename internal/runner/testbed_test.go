package runner

import (
	"testing"
	"time"

	"suss/internal/netem"
	"suss/internal/scenarios"
)

func TestRunTestbedBasics(t *testing.T) {
	run := RunTestbed(TestbedJob{Testbed: scenarios.DefaultTestbed(50*time.Millisecond, 1), Flows: []TestbedFlow{
		{Pair: 0, Algo: Cubic, Size: 1 << 20},
		{Pair: 1, Algo: Suss, Size: 1 << 20, Start: time.Second},
	}, Horizon: 30 * time.Second})
	for i, f := range run.Flows {
		if f.ID != i || !f.Completed || f.FCT <= 0 {
			t.Errorf("flow %d: %+v", i, f)
		}
	}
	if len(run.Bins) != 2 || len(run.Bins[0].Bins()) == 0 {
		t.Error("no goodput bins recorded")
	}
}

// testbedCells are a Fig. 2-shaped cell (four unbounded flows and a
// late joiner) and a Fig. 16-shaped one (a large BBR flow beside small
// CUBIC and SUSS flows on pairs of spread minRTTs, two flows a pair).
func testbedCells() []TestbedJob {
	late := TestbedJob{Testbed: scenarios.DefaultTestbed(50*time.Millisecond, 1), Horizon: 8 * time.Second}
	for i := 0; i < 4; i++ {
		late.Flows = append(late.Flows, TestbedFlow{Pair: i, Algo: Cubic, Start: time.Duration(i) * time.Second})
	}
	late.Flows = append(late.Flows, TestbedFlow{Pair: 4, Algo: Cubic, Start: 5 * time.Second})

	tb := scenarios.DefaultTestbed(100*time.Millisecond, 1)
	tb.PerPairRTT = []time.Duration{100 * time.Millisecond, 30 * time.Millisecond, 60 * time.Millisecond, 120 * time.Millisecond, 180 * time.Millisecond}
	stable := TestbedJob{Testbed: tb, Flows: []TestbedFlow{{Pair: 0, Algo: BBR, Size: 8 << 20}}, Horizon: 20 * time.Second}
	for i := 0; i < 8; i++ {
		a := Cubic
		if i%2 == 1 {
			a = Suss
		}
		stable.Flows = append(stable.Flows, TestbedFlow{Pair: 1 + i%4, Algo: a, Size: 1 << 20, Start: time.Duration(i+1) * time.Second})
	}
	return []TestbedJob{late, stable}
}

func testbedTap(scr *Scratch, j TestbedJob) tap[TestbedResult] {
	return tap[TestbedResult]{scr: scr, Res: scr.RunTestbed(j), Fired: scr.sim.Fired, Placed: scr.sim.Placed}
}

// TestWarmTestbedIsOneShot: a testbed cell on a Scratch that a Download
// and a fleet shard warmed — its slots holding their flows and
// controllers, its engine their timers and packets — and a testbed cell
// right after another, give what a one-shot run gives: records, bins,
// events fired and placements.
func TestWarmTestbedIsOneShot(t *testing.T) {
	cells := testbedCells()
	scr := new(Scratch)
	var warm []Outcome[tap[TestbedResult]]
	for _, j := range cells {
		scr.Download(Job{Scenario: scenarios.New(scenarios.OracleLondon, netem.Wired, 1), Algo: BBR, Size: 4 << 20})
		scr.RunFleetShard(testFleetJob(60))
		warm = append(warm, Outcome[tap[TestbedResult]]{Value: testbedTap(scr, j)})
	}
	for _, j := range cells {
		warm = append(warm, Outcome[tap[TestbedResult]]{Value: testbedTap(scr, j)})
	}
	sameAsOneShot(t, "testbed", append(cells, cells...), warm, testbedTap)
}
