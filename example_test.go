package suss_test

import (
	"fmt"
	"time"

	"suss"
)

// The headline comparison: the same 2 MB transfer over a large-BDP
// path with SUSS off and on. The simulator is deterministic, so this
// example's output is stable.
func ExampleCompareFCT() {
	cfg := suss.PathConfig{RateMbps: 100, RTT: 100 * time.Millisecond, BufferBDP: 1, Seed: 42}
	base, accel, imp, err := suss.CompareFCT(cfg, suss.CUBIC, suss.CUBICWithSUSS, 2<<20)
	if err != nil {
		panic(err)
	}
	fmt.Printf("CUBIC %v → CUBIC+SUSS %v (%.0f%% faster, max G=%d)\n",
		base.FCT.Round(time.Millisecond), accel.FCT.Round(time.Millisecond), 100*imp, accel.MaxG)
	// Output:
	// CUBIC 772ms → CUBIC+SUSS 522ms (32% faster, max G=4)
}

// Running a named internet scenario from the paper's 28-cell matrix.
func ExampleRunScenario() {
	res, err := suss.RunScenario("google-tokyo/wired", suss.CUBICWithSUSS, 1<<20, 1)
	if err != nil {
		panic(err)
	}
	fmt.Printf("delivered %d bytes, accelerated rounds: %d\n", res.DeliveredBytes, res.AcceleratedRounds)
	// Output:
	// delivered 1048576 bytes, accelerated rounds: 4
}

// Tracing a flow's congestion window the way the paper's kernel
// logging does (Fig. 9).
func ExampleRunTrace() {
	cfg := suss.PathConfig{RateMbps: 100, RTT: 100 * time.Millisecond, BufferBDP: 1, Seed: 1}
	_, pts, err := suss.RunTrace(cfg, suss.CUBICWithSUSS, 1<<20, 50*time.Millisecond)
	if err != nil {
		panic(err)
	}
	fmt.Printf("trace has samples: %v, cwnd grows: %v\n",
		len(pts) > 3, pts[len(pts)-1].CwndBytes > pts[0].CwndBytes)
	// Output:
	// trace has samples: true, cwnd grows: true
}

// The paper's fairness story (Figs. 2 and 15). A fifth flow joins four
// established CUBIC flows at a 50 Mbps bottleneck; with plain slow
// start the newcomer crawls toward its fair share, with SUSS it gets
// there sooner.
func ExampleRunFairness() {
	base := suss.FairnessConfig{
		RTT:       100 * time.Millisecond,
		BufferBDP: 1,
		JoinAt:    20 * time.Second,
		Horizon:   50 * time.Second,
	}
	for _, withSUSS := range []bool{false, true} {
		cfg := base
		cfg.WithSUSS = withSUSS
		res, err := suss.RunFairness(cfg)
		if err != nil {
			panic(err)
		}
		name := "SUSS off"
		if withSUSS {
			name = "SUSS on"
		}
		fmt.Printf("%s:\n", name)
		fmt.Printf("  fairness recovery (Jain ≥ 0.95): %v after the join\n", res.RecoveryTime)
		fmt.Printf("  mean post-join Jain index:       %.3f\n", res.MeanPostJoin)
		fmt.Print("  index per second after join:    ")
		for i, f := range res.Jain {
			if i >= 10 {
				break
			}
			fmt.Printf(" %.2f", f)
		}
		fmt.Println()
	}
	// Output:
	// SUSS off:
	//   fairness recovery (Jain ≥ 0.95): 20s after the join
	//   mean post-join Jain index:       0.883
	//   index per second after join:     0.76 0.80 0.84 0.81 0.83 0.84 0.85 0.83 0.91 0.86
	// SUSS on:
	//   fairness recovery (Jain ≥ 0.95): 9s after the join
	//   mean post-join Jain index:       0.935
	//   index per second after join:     0.69 0.79 0.77 0.80 0.85 0.86 0.87 0.95 0.93 0.95
}

// FCT versus flow size for BBR, CUBIC and CUBIC+SUSS over one of the
// paper's internet scenarios: the Fig. 11/12 view of where SUSS's
// gains live (small flows) and where they taper off (large flows).
func ExampleRunScenario_sweep() {
	const scenario = "google-tokyo/wifi"
	sizes := []int64{256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20}
	algos := []suss.Algorithm{suss.BBRv1, suss.CUBIC, suss.CUBICWithSUSS}

	fmt.Printf("FCT vs flow size on %s\n", scenario)
	fmt.Printf("%-8s %12s %12s %12s %14s\n", "size", "bbr", "cubic", "cubic+suss", "suss gain")
	for _, size := range sizes {
		var fcts []time.Duration
		for _, algo := range algos {
			res, err := suss.RunScenario(scenario, algo, size, 11)
			if err != nil {
				panic(err)
			}
			fcts = append(fcts, res.FCT)
		}
		label := fmt.Sprintf("%gKB", float64(size)/(1<<10))
		if size >= 1<<20 {
			label = fmt.Sprintf("%gMB", float64(size)/(1<<20))
		}
		gain := 1 - fcts[2].Seconds()/fcts[1].Seconds()
		fmt.Printf("%-8s %12v %12v %12v %13.1f%%\n", label,
			fcts[0].Round(time.Millisecond), fcts[1].Round(time.Millisecond),
			fcts[2].Round(time.Millisecond), 100*gain)
	}
	// Output:
	// FCT vs flow size on google-tokyo/wifi
	// size              bbr        cubic   cubic+suss      suss gain
	// 256KB           814ms        696ms        492ms          29.3%
	// 512KB           985ms        850ms        565ms          33.6%
	// 1MB            1.155s       1.008s        655ms          35.1%
	// 2MB            1.318s       1.171s        754ms          35.6%
	// 4MB            1.495s       1.338s        906ms          32.3%
	// 8MB            1.719s       1.588s       1.145s          27.9%
}

// The traffic regime the paper's introduction motivates: a
// mice-dominated web mix (pages, images, short videos) sharing a
// 50 Mbps bottleneck, 80 flows arriving at 3 a second.
func ExampleRunWebWorkload() {
	const rate = 3
	res, err := suss.RunWebWorkload(80, rate, 7)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d web-mix flows at %.1f/s over a shared 50 Mbps bottleneck\n\n", res.Flows, float64(rate))
	fmt.Printf("%-16s %12s %12s\n", "", "SUSS off", "SUSS on")
	fmt.Printf("%-16s %11.3fs %11.3fs\n", "mean FCT (all)", res.AllOff.MeanFCT, res.AllOn.MeanFCT)
	fmt.Printf("%-16s %11.3fs %11.3fs\n", "p95 FCT (all)", res.AllOff.P95FCT, res.AllOn.P95FCT)
	fmt.Printf("%-16s %11.3fs %11.3fs\n", "mean FCT (≤1MB)", res.SmallOff.MeanFCT, res.SmallOn.MeanFCT)
	fmt.Printf("%-16s %11.3fs %11.3fs\n", "p95 FCT (≤1MB)", res.SmallOff.P95FCT, res.SmallOn.P95FCT)
	fmt.Printf("\nper-flow FCT gain: mean %.1f%%, small flows %.1f%%\n",
		100*res.MeanImprovement, 100*res.SmallFlowImprovement)
	// Output:
	// 80 web-mix flows at 3.0/s over a shared 50 Mbps bottleneck
	//
	//                      SUSS off      SUSS on
	// mean FCT (all)         0.880s       0.755s
	// p95 FCT (all)          3.078s       3.202s
	// mean FCT (≤1MB)        0.212s       0.212s
	// p95 FCT (≤1MB)         0.482s       0.332s
	//
	// per-flow FCT gain: mean -5.1%, small flows -6.3%
}

// A download over a simulated 4G last hop (stochastic bandwidth,
// correlated jitter, deep buffer), with the cwnd ramp for SUSS off and
// on: the paper's Fig. 9 view.
func ExampleRunTrace_wireless() {
	cfg := suss.PathConfig{
		RateMbps: 150, // LTE-A class link, as calibrated from the paper's Fig. 9
		RTT:      190 * time.Millisecond,
		Link:     suss.LTE4G,
		Seed:     7,
	}
	for _, algo := range []suss.Algorithm{suss.CUBIC, suss.CUBICWithSUSS} {
		res, pts, err := suss.RunTrace(cfg, algo, 16<<20, 100*time.Millisecond)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s — FCT %v, loss %.3f%%, retrans %d\n",
			algo, res.FCT.Round(time.Millisecond), 100*res.LossRate, res.Retransmissions)
		fmt.Println("   t        cwnd(segs)  srtt      delivered")
		for _, p := range pts {
			if p.T > 3*time.Second {
				break
			}
			fmt.Printf("   %-8v %-11d %-9v %6.2f MB\n",
				p.T.Round(10*time.Millisecond), p.CwndBytes/1448,
				p.SRTT.Round(time.Millisecond), float64(p.Delivered)/(1<<20))
		}
		fmt.Println()
	}
	// Output:
	// cubic — FCT 2.508s, loss 0.000%, retrans 2
	//    t        cwnd(segs)  srtt      delivered
	//    200ms    11          197ms       0.00 MB
	//    400ms    21          199ms       0.02 MB
	//    600ms    40          204ms       0.04 MB
	//    800ms    80          206ms       0.10 MB
	//    1s       161         196ms       0.21 MB
	//    1.19s    321         198ms       0.43 MB
	//    1.39s    641         220ms       0.87 MB
	//    1.58s    1281        220ms       1.76 MB
	//    1.68s    2223        244ms       3.14 MB
	//    1.78s    2223        200ms       3.56 MB
	//    1.88s    2223        231ms       5.20 MB
	//    1.98s    2223        283ms       6.48 MB
	//    2.08s    2223        219ms       8.05 MB
	//    2.18s    2224        196ms       9.60 MB
	//    2.28s    2224        214ms      10.95 MB
	//    2.38s    2224        206ms      12.59 MB
	//    2.48s    2224        199ms      14.15 MB
	//    2.58s    2225        201ms      15.67 MB
	//
	// cubic+suss — FCT 3.239s, loss 0.009%, retrans 3
	//    t        cwnd(segs)  srtt      delivered
	//    200ms    11          197ms       0.00 MB
	//    400ms    41          199ms       0.02 MB
	//    510ms    124         202ms       0.06 MB
	//    630ms    252         199ms       0.13 MB
	//    730ms    582         195ms       0.24 MB
	//    830ms    770         201ms       0.47 MB
	//    930ms    1116        192ms       0.95 MB
	//    1.03s    1182        207ms       1.47 MB
	//    1.13s    827         206ms       2.44 MB
	//    1.23s    827         201ms       3.10 MB
	//    1.41s    827         195ms       4.03 MB
	//    1.51s    844         204ms       5.05 MB
	//    1.61s    846         197ms       5.22 MB
	//    1.71s    864         201ms       6.22 MB
	//    1.81s    866         201ms       6.39 MB
	//    1.91s    883         200ms       7.40 MB
	//    2.01s    887         192ms       7.67 MB
	//    2.11s    902         207ms       8.59 MB
	//    2.21s    907         195ms       8.94 MB
	//    2.31s    921         196ms       9.87 MB
	//    2.41s    924         206ms      10.12 MB
	//    2.51s    938         201ms      11.15 MB
	//    2.61s    941         199ms      11.37 MB
	//    2.72s    954         208ms      12.35 MB
	//    2.82s    958         200ms      12.68 MB
	//    2.92s    970         200ms      13.67 MB
}
