package suss

// One benchmark per table and figure in the paper's evaluation, plus
// the ablations DESIGN.md calls out. Each benchmark runs the
// experiment at reduced fidelity per iteration and reports the
// headline quantity the paper's plot shows via b.ReportMetric, so
// `go test -bench . -benchmem` regenerates the whole evaluation in
// miniature. cmd/sussbench runs the full-fidelity version.

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"suss/internal/experiments"
	"suss/internal/netem"
	"suss/internal/netsim"
	"suss/internal/runner"
	"suss/internal/scenarios"
	"suss/internal/stats"
)

func BenchmarkFig01SlowStartUnderutilization(b *testing.B) {
	var deficit float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig01(30<<20, int64(i+1))
		deficit = r.RampLoss[0]
	}
	b.ReportMetric(deficit, "cubic-ramp-deficit-MB")
}

func BenchmarkFig02LateJoinerConvergence(b *testing.B) {
	var cubicShare, bbrShare float64
	for i := 0; i < b.N; i++ {
		rc := experiments.RunFig02(runner.Cubic, 100*time.Millisecond, 2, 15*time.Second, 40*time.Second, runner.Options{})
		rb := experiments.RunFig02(runner.BBR2, 100*time.Millisecond, 2, 15*time.Second, 40*time.Second, runner.Options{})
		cubicShare = rc.Fig02Mean(15)
		bbrShare = rb.Fig02Mean(15)
	}
	b.ReportMetric(cubicShare, "cubic-joiner-mean-share")
	b.ReportMetric(bbrShare, "bbr-joiner-mean-share")
}

func BenchmarkFig09CwndRTTDynamics(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig09(16<<20, int64(i+1))
		if r.TimeToExitCwnd[1] > 0 {
			speedup = float64(r.TimeToExitCwnd[0]) / float64(r.TimeToExitCwnd[1])
		}
	}
	b.ReportMetric(speedup, "ramp-speedup-x")
}

func BenchmarkFig10DataDelivery(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig09(16<<20, int64(i+1))
		if r.DeliveredAt2s[0] > 0 {
			gain = float64(r.DeliveredAt2s[1]) / float64(r.DeliveredAt2s[0])
		}
	}
	b.ReportMetric(gain, "delivered-at-2s-gain-x")
}

func BenchmarkFig11FCTvsFlowSize(b *testing.B) {
	sizes := []int64{512 << 10, 2 << 20, 8 << 20}
	var imp float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig11(scenarios.GoogleTokyo, sizes, 1, int64(i+1), runner.Options{}, false)
		imp = r.SmallFlowImprovement(2 << 20)
	}
	b.ReportMetric(100*imp, "small-flow-improvement-%")
}

func BenchmarkFig12FCTImprovement(b *testing.B) {
	// Fig. 12 is derived from the Fig. 11 sweep; benchmark the derived
	// quantity on the 4G column, where the paper highlights >20%.
	var imp float64
	for i := 0; i < b.N; i++ {
		sc := scenarios.New(scenarios.GoogleTokyo, netem.LTE4G, int64(i+1))
		c, _ := downloads(b, sc, runner.Cubic, 2<<20, 2)
		s, _ := downloads(b, sc, runner.Suss, 2<<20, 2)
		imp = experiments.Improvement(stats.Mean(c), stats.Mean(s))
	}
	b.ReportMetric(100*imp, "tokyo-4g-2MB-improvement-%")
}

// downloads runs iters downloads of size bytes under algo on sc as one
// batch and returns their completion times in seconds and their mean
// loss rate; a download that does not complete fails b.
func downloads(b *testing.B, sc scenarios.Scenario, algo runner.Algo, size int64, iters int) (fcts []float64, meanLoss float64) {
	jobs := make([]runner.Job, iters)
	for i := range jobs {
		jobs[i] = runner.Job{Scenario: sc, Algo: algo, Size: size, Iter: i}
	}
	for _, r := range runner.Run(context.Background(), jobs, runner.Options{}) {
		if r.Err != nil {
			b.Fatal(r.Err)
		}
		fcts = append(fcts, r.FCT.Seconds())
		meanLoss += r.LossRate
	}
	return fcts, meanLoss / float64(iters)
}

// BenchmarkFig11ParallelVsSequential runs the same reduced Fig. 11
// sweep once per iteration with a single worker and with a full
// GOMAXPROCS pool: the sub-benchmark wall clocks are the sequential
// vs parallel comparison point (the numbers produced are identical —
// see the determinism test in internal/experiments).
func BenchmarkFig11ParallelVsSequential(b *testing.B) {
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := experiments.RunFig11(scenarios.GoogleTokyo, fig11ReducedSizes, 1, int64(i+1), runner.Options{Workers: workers}, false)
				if r.Incomplete > 0 {
					b.Fatalf("%d incomplete downloads", r.Incomplete)
				}
			}
		})
	}
}

// fig11ReducedSizes makes the reduced sweep 24 cells: 4 links × 2 sizes
// × 3 algos.
var fig11ReducedSizes = []int64{512 << 10, 2 << 20}

// fig11SerialSweepAllocs is the number of mallocs one single-worker
// pass of the reduced sweep at seed 1 makes: 24 cells on one worker's
// engine, flow slot and path. Map's workers keep their Scratch between
// calls, so every pass after the first reuses what the first grew and
// the minimum is a warm pass (the cold one is pinned by
// TestColdSweepAllocBudget in internal/runner). A warm cell allocates
// nothing, so the count is the sweep's own: the job list, Run's and
// Map's bookkeeping and the fold. No map is left on the
// packet path, so the count is exact (30 uncached processes read one
// number) and the gate is an equality. A change that legitimately moves
// the count edits this one number.
const fig11SerialSweepAllocs = 39

// fig11SerialSweepFired and fig11SerialSweepPlaced are the events the
// same 24 cells fire and the timing-wheel placements they cost, summed
// over the cells (netsim.Simulator.Fired and Placed). Fired is the
// behaviour: it moves only with the results. Placed is the scheduler's
// work, and moves when the way events are armed does.
const (
	fig11SerialSweepFired  = 196975
	fig11SerialSweepPlaced = 243224
)

// TestFig11SerialSweepAllocBudget is the alloc gate of the sweep hot
// path (part of `make allocgate`): an allocation added per data
// segment, per ACK, per flow or per cell changes the count.
func TestFig11SerialSweepAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates")
	}
	got := minMallocs(6, func() {
		r := experiments.RunFig11(scenarios.GoogleTokyo, fig11ReducedSizes, 1, 1, runner.Options{Workers: 1}, false)
		if r.Incomplete > 0 {
			t.Fatalf("%d incomplete downloads", r.Incomplete)
		}
	})
	var fired, placed uint64
	for _, j := range experiments.Fig11Jobs(scenarios.GoogleTokyo, fig11ReducedSizes, 1, 1) {
		var sim *netsim.Simulator
		j.Impair = func(env runner.ChaosEnv) { sim = env.Sim }
		runner.Download(j)
		fired, placed = fired+sim.Fired, placed+sim.Placed
	}
	t.Logf("min mallocs over 6 passes: %d (want %d); %d events fired (want %d), %d placements (want %d)",
		got, fig11SerialSweepAllocs, fired, fig11SerialSweepFired, placed, fig11SerialSweepPlaced)
	if got != fig11SerialSweepAllocs {
		t.Errorf("serial reduced fig11 sweep made %d mallocs, want exactly %d", got, fig11SerialSweepAllocs)
	}
	if fired != fig11SerialSweepFired || placed != fig11SerialSweepPlaced {
		t.Errorf("serial reduced fig11 sweep fired %d events in %d placements, want exactly %d in %d",
			fired, placed, fig11SerialSweepFired, fig11SerialSweepPlaced)
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

func BenchmarkFig13LargeFlowNoImpact(b *testing.B) {
	var early, total float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig13(int64(i + 1))
		early = r.ImprovementAt[0]
		total = r.TotalImprovement
	}
	b.ReportMetric(100*early, "improvement-at-1MB-%")
	b.ReportMetric(100*total, "improvement-at-100MB-%")
}

func BenchmarkFig14PacketLoss(b *testing.B) {
	sizes := []int64{2 << 20, 8 << 20}
	var off, on float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig14(sizes, 1, int64(i+1), runner.Options{})
		off, on = r.Loss[0][0], r.Loss[1][0]
	}
	b.ReportMetric(100*off, "loss-2MB-suss-off-%")
	b.ReportMetric(100*on, "loss-2MB-suss-on-%")
}

func BenchmarkFig15Fairness(b *testing.B) {
	cfg := experiments.Fig15Config{RTT: 200 * time.Millisecond, BufferBDP: 1}
	var off, on float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig15(cfg, 15*time.Second, 40*time.Second, runner.Options{})
		off, on = r.MeanPostJoin[0], r.MeanPostJoin[1]
	}
	b.ReportMetric(off, "jain-post-join-suss-off")
	b.ReportMetric(on, "jain-post-join-suss-on")
}

func BenchmarkFig16StabilityTrace(b *testing.B) {
	var largeFCT, smallFCT float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig16(runner.Cubic, runner.Suss, 100*time.Millisecond, 1, 40<<20, runner.Options{})
		largeFCT = r.LargeFCT
		smallFCT = stats.Mean(r.SmallFCTs)
	}
	b.ReportMetric(largeFCT, "large-fct-s")
	b.ReportMetric(smallFCT, "small-fct-mean-s")
}

func BenchmarkTable1Stability(b *testing.B) {
	var imp, delta float64
	for i := 0; i < b.N; i++ {
		off := experiments.RunFig16(runner.Cubic, runner.Cubic, 100*time.Millisecond, 1, 40<<20, runner.Options{})
		on := experiments.RunFig16(runner.Cubic, runner.Suss, 100*time.Millisecond, 1, 40<<20, runner.Options{})
		imp = experiments.Improvement(stats.Mean(off.SmallFCTs), stats.Mean(on.SmallFCTs))
		delta = (on.LargeFCT - off.LargeFCT) / off.LargeFCT
	}
	b.ReportMetric(100*imp, "small-flow-improvement-%")
	b.ReportMetric(100*delta, "large-flow-fct-delta-%")
}

func BenchmarkFig17LossAllScenarios(b *testing.B) {
	// One representative high-loss cell (London/5G, a1-style) plus a
	// benign one; the full 28-cell sweep lives in cmd/sussbench.
	var lossSussOff, lossSussOn float64
	for i := 0; i < b.N; i++ {
		sc := scenarios.New(scenarios.OracleLondon, netem.NR5G, int64(i+1))
		_, lossSussOff = downloads(b, sc, runner.Cubic, 4<<20, 1)
		_, lossSussOn = downloads(b, sc, runner.Suss, 4<<20, 1)
	}
	b.ReportMetric(100*lossSussOff, "loss-suss-off-%")
	b.ReportMetric(100*lossSussOn, "loss-suss-on-%")
}

func BenchmarkFig18AllScenarios(b *testing.B) {
	// A row of the matrix per iteration keeps the bench minutes-scale;
	// report the paper's headline: mean small-flow improvement.
	var imp float64
	for i := 0; i < b.N; i++ {
		var xs []float64
		for _, sc := range scenarios.All(int64(i + 1))[:4] { // row a
			cell := experiments.RunMatrixCell(sc, []int64{2 << 20}, 1, runner.Options{})
			xs = append(xs, cell.Improvement[0])
		}
		imp = stats.Mean(xs)
	}
	b.ReportMetric(100*imp, "row-a-2MB-improvement-%")
}

func BenchmarkAblationKmax(b *testing.B) {
	var fct1, fct3 float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunAblationKmax(8<<20, 1, int64(i+1), runner.Options{})
		fct1, fct3 = r.FCT[0], r.FCT[2]
	}
	b.ReportMetric(fct1, "kmax1-fct-s")
	b.ReportMetric(fct3, "kmax3-fct-s")
}

func BenchmarkAblationPacingVsBurst(b *testing.B) {
	var pacedQ, burstQ float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunAblationMechanisms(2<<20, 1, int64(i+1), runner.Options{})
		pacedQ, burstQ = float64(r.PeakQ[0]), float64(r.PeakQ[1])
	}
	b.ReportMetric(pacedQ, "paced-peak-queue-B")
	b.ReportMetric(burstQ, "burst-peak-queue-B")
}

func BenchmarkAblationBtlBwVariation(b *testing.B) {
	var off, on float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunBtlBwVariation("drop", 8<<20, runner.Options{})
		off, on = r.FCTOff, r.FCTOn
	}
	b.ReportMetric(off, "drop-fct-suss-off-s")
	b.ReportMetric(on, "drop-fct-suss-on-s")
}

func BenchmarkAblationSlowStartExits(b *testing.B) {
	var hystart, hspp, suss float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunSlowStartExitComparison(2<<20, 1, int64(i+1), runner.Options{})
		hystart, hspp, suss = r.FCT[0], r.FCT[1], r.FCT[2]
	}
	b.ReportMetric(hystart, "hystart-fct-s")
	b.ReportMetric(hspp, "hystartpp-fct-s")
	b.ReportMetric(suss, "suss-fct-s")
}

func BenchmarkWebMixWorkload(b *testing.B) {
	var small float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunWebMix(30, 3, int64(i+1), runner.Options{})
		small = r.SmallImprovement
	}
	b.ReportMetric(100*small, "small-flow-improvement-%")
}

func BenchmarkFutureWorkBBRSuss(b *testing.B) {
	var imp float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunFutureWorkBBRSuss([]int64{2 << 20}, 1, int64(i+1), runner.Options{})
		imp = r.Improvement[0]
	}
	b.ReportMetric(100*imp, "bbr-suss-2MB-improvement-%")
}

// BenchmarkCorePublicAPI measures the library's end-to-end cost for a
// typical single-flow simulation (engineering metric, not a paper
// figure).
func BenchmarkCorePublicAPI(b *testing.B) {
	cfg := PathConfig{RateMbps: 100, RTT: 100 * time.Millisecond, BufferBDP: 1}
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := Run(cfg, CUBICWithSUSS, 2<<20); err != nil {
			b.Fatal(err)
		}
	}
}
