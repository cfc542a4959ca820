package experiments

import (
	"strings"
	"testing"
	"time"

	"suss/internal/netem"
	"suss/internal/runner"
	"suss/internal/scenarios"
)

func TestDownloadCompletesAllAlgos(t *testing.T) {
	sc := scenarios.New(scenarios.GoogleTokyo, netem.Wired, 1)
	for _, algo := range []runner.Algo{runner.Cubic, runner.Suss, runner.BBR, runner.BBR2, runner.CubicHSPP} {
		r := runner.Download(runner.Job{Scenario: sc, Algo: algo, Size: 1 << 20})
		if !r.Completed {
			t.Errorf("%s did not complete", algo)
		}
		if r.Delivered != 1<<20 {
			t.Errorf("%s delivered %d", algo, r.Delivered)
		}
		if r.FCT <= 0 {
			t.Errorf("%s FCT = %v", algo, r.FCT)
		}
	}
}

func TestDownloadDeterministicPerIter(t *testing.T) {
	sc := scenarios.New(scenarios.GoogleTokyo, netem.LTE4G, 5)
	a := runner.Download(runner.Job{Scenario: sc, Algo: runner.Suss, Size: 2 << 20, Iter: 3})
	b := runner.Download(runner.Job{Scenario: sc, Algo: runner.Suss, Size: 2 << 20, Iter: 3})
	if a.FCT != b.FCT || a.Retrans != b.Retrans {
		t.Errorf("same iter differs: %v/%d vs %v/%d", a.FCT, a.Retrans, b.FCT, b.Retrans)
	}
	c := runner.Download(runner.Job{Scenario: sc, Algo: runner.Suss, Size: 2 << 20, Iter: 4})
	if c.FCT == a.FCT {
		t.Log("different iters gave identical FCT (possible but unlikely on 4G)")
	}
}

func TestSussBeatsCubicOnLargeBDPSmallFlow(t *testing.T) {
	// The headline behaviour driving Figs. 11/12/18.
	sc := scenarios.New(scenarios.GoogleTokyo, netem.Wired, 2)
	cub := runner.Download(runner.Job{Scenario: sc, Algo: runner.Cubic, Size: 2 << 20})
	sus := runner.Download(runner.Job{Scenario: sc, Algo: runner.Suss, Size: 2 << 20})
	if !cub.Completed || !sus.Completed {
		t.Fatal("incomplete")
	}
	imp := Improvement(cub.FCT.Seconds(), sus.FCT.Seconds())
	t.Logf("Tokyo/wired 2MB: cubic=%v suss=%v improvement=%.1f%% (maxG=%d)", cub.FCT, sus.FCT, 100*imp, sus.MaxG)
	if imp < 0.15 {
		t.Errorf("improvement %.1f%%, want ≥15%%", 100*imp)
	}
	if sus.MaxG < 4 {
		t.Errorf("SUSS never quadrupled (maxG=%d)", sus.MaxG)
	}
}

func TestImprovement(t *testing.T) {
	if Improvement(10, 8) != 0.2 {
		t.Errorf("Improvement(10,8) = %v", Improvement(10, 8))
	}
	if Improvement(0, 5) != 0 {
		t.Error("zero baseline should give 0")
	}
}

func TestSizeLabel(t *testing.T) {
	cases := map[int64]string{
		256 << 10: "256KB",
		1 << 20:   "1MB",
		12 << 20:  "12MB",
		100:       "100B",
	}
	for n, want := range cases {
		if got := SizeLabel(n); got != want {
			t.Errorf("SizeLabel(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestFig01Shape(t *testing.T) {
	r := RunFig01(20<<20, 1)
	if len(r.Theta) != 2 {
		t.Fatal("want two algos")
	}
	for i, a := range r.Algos {
		// θ must be near the 100 Mbps bottleneck.
		if r.Theta[i] < 5e7 || r.Theta[i] > 1.2e8 {
			t.Errorf("%s theta = %.3g", a, r.Theta[i])
		}
		// The ramp deficit is the figure's point: strictly positive.
		if r.RampLoss[i] <= 0 {
			t.Errorf("%s ramp deficit = %v, want > 0", a, r.RampLoss[i])
		}
	}
	if !strings.Contains(r.Render(), "Fig. 1") {
		t.Error("render missing header")
	}
}

func TestFig09Shape(t *testing.T) {
	r := RunFig09(25<<20, 1)
	if r.TimeToExitCwnd[1] <= 0 || r.TimeToExitCwnd[0] <= 0 {
		t.Fatalf("exit times: %v", r.TimeToExitCwnd)
	}
	// SUSS reaches the exit window materially faster (paper: ≈2×).
	speedup := float64(r.TimeToExitCwnd[0]) / float64(r.TimeToExitCwnd[1])
	t.Logf("Fig9: off=%v on=%v speedup=%.2fx delivered@2s %.2f→%.2f MB G=%v",
		r.TimeToExitCwnd[0], r.TimeToExitCwnd[1], speedup,
		float64(r.DeliveredAt2s[0])/(1<<20), float64(r.DeliveredAt2s[1])/(1<<20), r.GHistory)
	if speedup < 1.3 {
		t.Errorf("ramp speedup %.2f, want ≥1.3 (paper ≈2)", speedup)
	}
	// Delivered at 2 s must improve substantially.
	if r.DeliveredAt2s[1] < r.DeliveredAt2s[0] {
		t.Errorf("SUSS delivered less at 2s: %d vs %d", r.DeliveredAt2s[1], r.DeliveredAt2s[0])
	}
	// The accelerated ramp must not inflate RTT much (Fig. 9 bottom).
	if r.MaxSRTTDuringSS[1] > r.MaxSRTTDuringSS[0]*13/10 {
		t.Errorf("SUSS inflated slow-start RTT: %v vs %v", r.MaxSRTTDuringSS[1], r.MaxSRTTDuringSS[0])
	}
}

func TestFig15Shape(t *testing.T) {
	// The paper's effect is most pronounced at long RTTs, where
	// CUBIC's loss-truncated slow start leaves the joiner starved for
	// tens of seconds (Fig. 15, right-hand panels).
	cfg := Fig15Config{RTT: 200 * time.Millisecond, BufferBDP: 1}
	r := RunFig15(cfg, 20*time.Second, 50*time.Second, runner.Options{})
	if len(r.Jain[0]) == 0 || len(r.Jain[1]) == 0 {
		t.Fatal("no Jain series")
	}
	t.Logf("Fig15 %v/%.1fBDP: recovery off=%v on=%v mean off=%.3f on=%.3f",
		cfg.RTT, cfg.BufferBDP, r.RecoveryTime[0], r.RecoveryTime[1], r.MeanPostJoin[0], r.MeanPostJoin[1])
	if r.MeanPostJoin[1] < r.MeanPostJoin[0]+0.05 {
		t.Errorf("SUSS should clearly improve fairness here: on=%.3f off=%.3f",
			r.MeanPostJoin[1], r.MeanPostJoin[0])
	}
	if r.RecoveryTime[1] < 0 {
		t.Error("SUSS-on never recovered F ≥ 0.95")
	}
}

func TestMatrixCellShape(t *testing.T) {
	sc := scenarios.New(scenarios.OracleSydney, netem.WiFi, 3)
	cell := RunMatrixCell(sc, []int64{512 << 10, 2 << 20}, 2, runner.Options{})
	if len(cell.FCT) != 2 || len(cell.FCT[0]) != 4 {
		t.Fatalf("cell shape wrong: %+v", cell.FCT)
	}
	for si := range cell.Sizes {
		for ai, a := range cell.Algos {
			if cell.FCT[si][ai].Mean <= 0 {
				t.Errorf("%s size %d: non-positive FCT", a, si)
			}
		}
	}
	if !strings.Contains(cell.Render(), cell.Scenario.ID()) {
		t.Error("render missing cell ID")
	}
}

func TestAblationMechanismsShape(t *testing.T) {
	r := RunAblationMechanisms(2<<20, 1, 9, runner.Options{})
	if len(r.Variants) != 4 {
		t.Fatalf("variants = %v", r.Variants)
	}
	// The burst ablation must not have a LOWER peak queue than full
	// SUSS (pacing exists to cut the peak).
	if r.PeakQ[1] < r.PeakQ[0] {
		t.Errorf("burst variant peak queue %d < paced %d", r.PeakQ[1], r.PeakQ[0])
	}
	t.Log("\n" + r.Render())
}

func TestSlowStartExitComparisonShape(t *testing.T) {
	r := RunSlowStartExitComparison(2<<20, 2, 7, runner.Options{})
	if len(r.Variants) != 3 {
		t.Fatalf("variants: %v", r.Variants)
	}
	// SUSS (index 2) must beat both classic HyStart and HyStart++ on a
	// large-BDP path — that is the paper's positioning.
	if r.FCT[2] >= r.FCT[0] || r.FCT[2] >= r.FCT[1] {
		t.Errorf("SUSS FCT %.3f should beat hystart %.3f and hystart++ %.3f", r.FCT[2], r.FCT[0], r.FCT[1])
	}
	t.Log("\n" + r.Render())
}

func TestBtlBwVariationShape(t *testing.T) {
	r := RunBtlBwVariation("drop", 8<<20, runner.Options{})
	if r.FCTOff <= 0 || r.FCTOn <= 0 {
		t.Fatalf("bad FCTs: %+v", r)
	}
	// App. B Obs. 1: a rate drop must not make SUSS materially worse
	// than plain CUBIC.
	if r.FCTOn > r.FCTOff*1.15 {
		t.Errorf("SUSS 15%%+ slower under BtlBw drop: on=%.3f off=%.3f", r.FCTOn, r.FCTOff)
	}
	t.Log(r.Render())
}
