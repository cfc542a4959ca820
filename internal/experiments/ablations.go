package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"suss/internal/core"
	"suss/internal/netem"
	"suss/internal/netsim"
	"suss/internal/runner"
	"suss/internal/scenarios"
)

// AblationResult compares SUSS variants on one path, isolating the
// design choices §4 argues for (clocking+pacing+guard) and App. A's
// kmax generalization.
type AblationResult struct {
	Name string
	// Variants and their mean FCT (s), mean loss rate, and peak
	// bottleneck queue (bytes).
	Variants []string
	FCT      []float64
	Loss     []float64
	PeakQ    []int
	// Incomplete counts runs that never finished (excluded above).
	Incomplete int
}

// runSussVariants runs iters SUSS downloads of size bytes per variant
// as one job slice and reports each variant's mean FCT, mean loss and
// peak queue.
func runSussVariants(opt runner.Options, sc scenarios.Scenario, name string, names []string, vs []runner.Job, size int64, iters int) AblationResult {
	res := AblationResult{Name: name, Variants: names}
	sizes := []int64{size}
	out := runner.Run(context.Background(), sweep(nil, sc, sizes, vs, iters), opt)
	fct, loss := fold(out, sizes, vs, iters, &res.Incomplete)
	for vi := range vs {
		peakQ := 0
		for _, r := range out[vi*iters:][:iters] {
			if r.Err == nil {
				peakQ = max(peakQ, r.PeakQueue)
			}
		}
		res.FCT = append(res.FCT, fct[0][vi].Mean)
		res.Loss = append(res.Loss, loss[0][vi])
		res.PeakQ = append(res.PeakQ, peakQ)
	}
	return res
}

// sussJob is a SUSS job template whose options are the defaults as set
// leaves them.
func sussJob(set func(*core.Options)) runner.Job {
	o := core.DefaultOptions()
	set(&o)
	return runner.Job{Algo: runner.Suss, SussOpt: &o}
}

// RunAblationMechanisms compares full SUSS against the clocking-only
// (no pacing period) and pacing-only (everything paced) ablations plus
// the no-guard variant, on a large-BDP 5G path.
func RunAblationMechanisms(size int64, iters int, seed int64, opt runner.Options) AblationResult {
	sc := scenarios.New(scenarios.GoogleTokyo, netem.NR5G, seed)
	sc.LastHop.BufferBDPs = 0.6 // make burst damage visible
	names := []string{"full", "no-pacing (burst reds)", "pace-everything", "no-guard"}
	vs := []runner.Job{
		sussJob(func(*core.Options) {}),
		sussJob(func(o *core.Options) { o.NoPacing = true }),
		sussJob(func(o *core.Options) { o.PaceEverything = true }),
		sussJob(func(o *core.Options) { o.NoGuard = true }),
	}
	return runSussVariants(opt, sc, "mechanisms", names, vs, size, iters)
}

// RunAblationKmax sweeps the Appendix-A generalization kmax ∈ {1,2,3}.
func RunAblationKmax(size int64, iters int, seed int64, opt runner.Options) AblationResult {
	sc := scenarios.New(scenarios.GoogleTokyo, netem.Wired, seed)
	var names []string
	var vs []runner.Job
	for _, k := range []int{1, 2, 3} {
		names = append(names, fmt.Sprintf("kmax=%d", k))
		vs = append(vs, sussJob(func(o *core.Options) { o.Kmax = k }))
	}
	return runSussVariants(opt, sc, "kmax", names, vs, size, iters)
}

// Render prints the comparison.
func (r AblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: %s\n", r.Name)
	fmt.Fprintf(&b, "  %-24s %10s %10s %12s\n", "variant", "FCT", "loss", "peak queue")
	for i, v := range r.Variants {
		fmt.Fprintf(&b, "  %-24s %9.3fs %9.3f%% %11dB\n", v, r.FCT[i], 100*r.Loss[i], r.PeakQ[i])
	}
	if r.Incomplete > 0 {
		fmt.Fprintf(&b, "  WARNING: %d run(s) did not complete (excluded)\n", r.Incomplete)
	}
	return b.String()
}

// BtlBwVariationResult reproduces Appendix B: a bandwidth step on the
// bottleneck mid-slow-start, with SUSS on and off.
type BtlBwVariationResult struct {
	// Step direction: "drop" halves the rate at 1 s, "rise" doubles it.
	Direction string
	FCTOff    float64
	FCTOn     float64
	LossOff   float64
	LossOn    float64
	// Failed lists variants whose flow never finished.
	Failed []string
}

// RunBtlBwVariation runs the step experiment; the off/on variants run
// as two independent pool items. The path has no randomness, so there
// is nothing to seed.
func RunBtlBwVariation(direction string, size int64, opt runner.Options) BtlBwVariationResult {
	res := BtlBwVariationResult{Direction: direction}
	base, after := 2e8, 1e8
	if direction == "rise" {
		base, after = 1e8, 2e8
	}
	rtt := 150 * time.Millisecond
	bneck := netsim.LinkConfig{RateModel: netem.Step(base, after, time.Second), QueueBytes: int(base / 8 * rtt.Seconds())}
	jobs := []runner.Job{twoHop(runner.Cubic, size, rtt, bneck, new(time.Duration)), twoHop(runner.Suss, size, rtt, bneck, new(time.Duration))}
	for variant, o := range runner.Run(context.Background(), jobs, opt) {
		if o.Err != nil {
			res.Failed = append(res.Failed, fmt.Sprintf("BtlBw %s: %v", direction, o.Err))
			continue
		}
		if variant == 0 {
			res.FCTOff, res.LossOff = o.FCT.Seconds(), o.LossRate
		} else {
			res.FCTOn, res.LossOn = o.FCT.Seconds(), o.LossRate
		}
	}
	return res
}

// Render prints the comparison.
func (r BtlBwVariationResult) Render() string {
	s := fmt.Sprintf("Appendix B — BtlBw %s at t=1s: off FCT=%.3fs loss=%.3f%%; on FCT=%.3fs loss=%.3f%%\n",
		r.Direction, r.FCTOff, 100*r.LossOff, r.FCTOn, 100*r.LossOn)
	for _, f := range r.Failed {
		s += fmt.Sprintf("  FAILED %s\n", f)
	}
	return s
}

// SlowStartExitResult compares the three slow-start exit strategies —
// classic HyStart (Linux CUBIC), HyStart++ (RFC 9406), and SUSS's
// accelerated start with its modified HyStart — on one path.
type SlowStartExitResult struct {
	Scenario   string
	Variants   []string
	FCT        []float64
	Loss       []float64
	Incomplete int
}

// RunSlowStartExitComparison sweeps the three variants over iters
// downloads of size bytes on a large-BDP wired path, as one job slice.
func RunSlowStartExitComparison(size int64, iters int, seed int64, opt runner.Options) SlowStartExitResult {
	sc := scenarios.New(scenarios.GoogleTokyo, netem.Wired, seed)
	res := SlowStartExitResult{Scenario: sc.Name()}
	vs, sizes := variants(runner.Cubic, runner.CubicHSPP, runner.Suss), []int64{size}
	out := runner.Run(context.Background(), sweep(nil, sc, sizes, vs, iters), opt)
	fct, loss := fold(out, sizes, vs, iters, &res.Incomplete)
	for vi, v := range vs {
		res.Variants = append(res.Variants, v.Algo.String())
		res.FCT = append(res.FCT, fct[0][vi].Mean)
		res.Loss = append(res.Loss, loss[0][vi])
	}
	return res
}

// Render prints the comparison.
func (r SlowStartExitResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Slow-start exit comparison on %s\n", r.Scenario)
	fmt.Fprintf(&b, "  %-12s %10s %10s\n", "variant", "FCT", "loss")
	for i, v := range r.Variants {
		fmt.Fprintf(&b, "  %-12s %9.3fs %9.3f%%\n", v, r.FCT[i], 100*r.Loss[i])
	}
	if r.Incomplete > 0 {
		fmt.Fprintf(&b, "  WARNING: %d run(s) did not complete (excluded)\n", r.Incomplete)
	}
	return b.String()
}

// FutureWorkResult compares plain BBR with the §7 BBR+SUSS prototype
// across flow sizes on a large-BDP path.
type FutureWorkResult struct {
	Scenario string
	Sizes    []int64
	// FCT[size][0] = bbr, [1] = bbr+suss; Improvement per size.
	FCT         [][]float64
	Improvement []float64
	Incomplete  int
}

// RunFutureWorkBBRSuss sweeps flow sizes for BBR vs BBR+SUSS as one
// job slice.
func RunFutureWorkBBRSuss(sizes []int64, iters int, seed int64, opt runner.Options) FutureWorkResult {
	sc := scenarios.New(scenarios.GoogleTokyo, netem.Wired, seed)
	res := FutureWorkResult{Scenario: sc.Name(), Sizes: sizes}
	vs := variants(runner.BBR, runner.BBRSuss)
	out := runner.Run(context.Background(), sweep(nil, sc, sizes, vs, iters), opt)
	fct, _ := fold(out, sizes, vs, iters, &res.Incomplete)
	for _, row := range fct {
		res.FCT = append(res.FCT, []float64{row[0].Mean, row[1].Mean})
	}
	res.Improvement = improvement(fct, 0, 1)
	return res
}

// Render prints the comparison.
func (r FutureWorkResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§7 future work — BBR vs BBR+SUSS on %s\n", r.Scenario)
	fmt.Fprintf(&b, "  %-8s %10s %10s %12s\n", "size", "bbr", "bbr+suss", "improvement")
	for i, size := range r.Sizes {
		fmt.Fprintf(&b, "  %-8s %9.3fs %9.3fs %11.1f%%\n",
			SizeLabel(size), r.FCT[i][0], r.FCT[i][1], 100*r.Improvement[i])
	}
	if r.Incomplete > 0 {
		fmt.Fprintf(&b, "  WARNING: %d run(s) did not complete (excluded)\n", r.Incomplete)
	}
	return b.String()
}

// AQMResult compares the network-assisted path (a CoDel bottleneck,
// related work per RFC 8290) against SUSS's sender-side approach: both
// attack slow-start's standing-queue and burst-loss problems, one from
// the router, one from the end host.
type AQMResult struct {
	Variants   []string
	FCT        []float64
	Loss       []float64
	MaxRTTms   []float64
	Incomplete int
}

// RunAQMComparison downloads size bytes over a 100 Mbps × 100 ms path
// with a shallow-ish buffer under three regimes: CUBIC + drop-tail,
// CUBIC + CoDel, and CUBIC+SUSS + drop-tail. The path has no
// randomness, so each variant runs once; the three run as one pool
// batch.
func RunAQMComparison(size int64, opt runner.Options) AQMResult {
	res := AQMResult{}
	type variant struct {
		name  string
		algo  runner.Algo
		qdisc netsim.QdiscFactory
	}
	variants := []variant{
		{"cubic/drop-tail", runner.Cubic, nil},
		{"cubic/codel", runner.Cubic, netsim.CoDelFactory},
		{"suss/drop-tail", runner.Suss, nil},
	}
	rtt, rate := 100*time.Millisecond, 1e8
	maxRTT := make([]time.Duration, len(variants))
	jobs := make([]runner.Job, len(variants))
	for i, v := range variants {
		bneck := netsim.LinkConfig{Rate: rate, QueueBytes: int(rate / 8 * rtt.Seconds()), Qdisc: v.qdisc}
		jobs[i] = twoHop(v.algo, size, rtt, bneck, &maxRTT[i])
	}
	for i, o := range runner.Run(context.Background(), jobs, opt) {
		fct, loss, rttMs := 0.0, 0.0, 0.0 // a failed run is reported as zeros
		if o.Err != nil {
			res.Incomplete++
		} else {
			fct, loss, rttMs = o.FCT.Seconds(), o.LossRate, float64(maxRTT[i])/1e6
		}
		res.Variants = append(res.Variants, variants[i].name)
		res.FCT = append(res.FCT, fct)
		res.Loss = append(res.Loss, loss)
		res.MaxRTTms = append(res.MaxRTTms, rttMs)
	}
	return res
}

// twoHop is a download of size bytes under algo over a 1 Gbps core hop
// into bneck, whose name and 5 ms delay it sets; the core's delay makes
// the path's propagation round trip rtt. Its Impair hook rewires the
// two hops of a wired scenario into that path, and keeps the flow's
// worst smoothed RTT in *maxRTT. The Appendix-B step and the AQM
// comparison run here: their bottlenecks need a rate model or a qdisc
// that no internet scenario has.
func twoHop(algo runner.Algo, size int64, rtt time.Duration, bneck netsim.LinkConfig, maxRTT *time.Duration) runner.Job {
	bneck.Name, bneck.Delay = "bneck", 5*time.Millisecond
	spec := netsim.PathSpec{Forward: []netsim.LinkConfig{
		{Name: "core", Rate: 1e9, Delay: rtt/2 - 5*time.Millisecond, QueueBytes: 64 << 20},
		bneck,
	}}
	return runner.Job{Scenario: scenarios.New(scenarios.GoogleTokyo, netem.Wired, 0), Algo: algo, Size: size,
		Impair: func(env runner.ChaosEnv) {
			env.Path.Reset(spec)
			env.Flow.Sender.OnAckTrace = func(_ time.Duration, _ int64, srtt time.Duration, _ int64) {
				*maxRTT = max(*maxRTT, srtt)
			}
		}}
}

// Render prints the comparison.
func (r AQMResult) Render() string {
	var b strings.Builder
	b.WriteString("Related work — AQM (CoDel) vs sender-side SUSS\n")
	fmt.Fprintf(&b, "  %-18s %10s %10s %12s\n", "variant", "FCT", "loss", "max sRTT")
	for i, v := range r.Variants {
		fmt.Fprintf(&b, "  %-18s %9.3fs %9.3f%% %10.1fms\n", v, r.FCT[i], 100*r.Loss[i], r.MaxRTTms[i])
	}
	if r.Incomplete > 0 {
		fmt.Fprintf(&b, "  WARNING: %d run(s) did not complete (excluded)\n", r.Incomplete)
	}
	return b.String()
}
