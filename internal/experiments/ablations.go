package experiments

import (
	"fmt"
	"strings"
	"time"

	"suss/internal/core"
	"suss/internal/netem"
	"suss/internal/netsim"
	"suss/internal/runner"
	"suss/internal/scenarios"
	"suss/internal/stats"
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

// runSussVariants declares variants × iters SUSS downloads as one job
// slice and aggregates FCT, loss and peak queue per variant.
func runSussVariants(cfg config, sc scenarios.Scenario, name string, names []string, options []core.Options, size int64, iters int) AblationResult {
	res := AblationResult{Name: name, Variants: names}
	var jobs []runner.Job
	for vi := range options {
		for it := 0; it < iters; it++ {
			jobs = append(jobs, runner.Job{Scenario: sc, Algo: Suss, SussOpt: &options[vi], Size: size, Iter: it})
		}
	}
	out := runner.Run(cfg.ctx, jobs, cfg.pool())
	for vi := range options {
		b := summarizeBatch(out[vi*iters:(vi+1)*iters], nil)
		res.Incomplete += b.incomplete
		peakQ := 0
		var losses []float64
		for _, r := range out[vi*iters : (vi+1)*iters] {
			if r.Err != nil {
				continue
			}
			if r.PeakQueue > peakQ {
				peakQ = r.PeakQueue
			}
			losses = append(losses, r.LossRate)
		}
		res.FCT = append(res.FCT, stats.Mean(b.fcts))
		res.Loss = append(res.Loss, stats.Mean(losses))
		res.PeakQ = append(res.PeakQ, peakQ)
	}
	return res
}

// RunAblationMechanisms compares full SUSS against the clocking-only
// (no pacing period) and pacing-only (everything paced) ablations plus
// the no-guard variant, on a large-BDP 5G path.
func RunAblationMechanisms(size int64, iters int, seed int64, opts ...Option) AblationResult {
	sc := scenarios.New(scenarios.GoogleTokyo, netem.NR5G, seed)
	sc.LastHop.BufferBDPs = 0.6 // make burst damage visible
	names := []string{"full", "no-pacing (burst reds)", "pace-everything", "no-guard"}
	options := []core.Options{
		core.DefaultOptions(),
		func() core.Options { o := core.DefaultOptions(); o.NoPacing = true; return o }(),
		func() core.Options { o := core.DefaultOptions(); o.PaceEverything = true; return o }(),
		func() core.Options { o := core.DefaultOptions(); o.NoGuard = true; return o }(),
	}
	return runSussVariants(newConfig(opts), sc, "mechanisms", names, options, size, iters)
}

// RunAblationKmax sweeps the Appendix-A generalization kmax ∈ {1,2,3}.
func RunAblationKmax(size int64, iters int, seed int64, opts ...Option) AblationResult {
	sc := scenarios.New(scenarios.GoogleTokyo, netem.Wired, seed)
	var names []string
	var options []core.Options
	for _, k := range []int{1, 2, 3} {
		opt := core.DefaultOptions()
		opt.Kmax = k
		names = append(names, fmt.Sprintf("kmax=%d", k))
		options = append(options, opt)
	}
	return runSussVariants(newConfig(opts), sc, "kmax", names, options, size, iters)
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
func RunBtlBwVariation(direction string, size int64, opts ...Option) BtlBwVariationResult {
	cfg := newConfig(opts)
	res := BtlBwVariationResult{Direction: direction}
	base, after := 2e8, 1e8
	if direction == "rise" {
		base, after = 1e8, 2e8
	}
	rtt := 150 * time.Millisecond
	bneck := netsim.LinkConfig{RateModel: netem.Step(base, after, time.Second), QueueBytes: int(base / 8 * rtt.Seconds())}
	jobs := []runner.Job{twoHop(Cubic, size, rtt, bneck, new(time.Duration)), twoHop(Suss, size, rtt, bneck, new(time.Duration))}
	for variant, o := range runner.Run(cfg.ctx, jobs, cfg.pool()) {
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
func RunSlowStartExitComparison(size int64, iters int, seed int64, opts ...Option) SlowStartExitResult {
	cfg := newConfig(opts)
	sc := scenarios.New(scenarios.GoogleTokyo, netem.Wired, seed)
	res := SlowStartExitResult{Scenario: sc.Name()}
	algos := []Algo{Cubic, CubicHSPP, Suss}
	var jobs []runner.Job
	for _, algo := range algos {
		for it := 0; it < iters; it++ {
			jobs = append(jobs, runner.Job{Scenario: sc, Algo: algo, Size: size, Iter: it})
		}
	}
	out := runner.Run(cfg.ctx, jobs, cfg.pool())
	for vi, algo := range algos {
		b := summarizeBatch(out[vi*iters:(vi+1)*iters], nil)
		res.Incomplete += b.incomplete
		res.Variants = append(res.Variants, algo.String())
		res.FCT = append(res.FCT, stats.Mean(b.fcts))
		res.Loss = append(res.Loss, b.meanLoss)
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
func RunFutureWorkBBRSuss(sizes []int64, iters int, seed int64, opts ...Option) FutureWorkResult {
	cfg := newConfig(opts)
	sc := scenarios.New(scenarios.GoogleTokyo, netem.Wired, seed)
	res := FutureWorkResult{Scenario: sc.Name(), Sizes: sizes}
	algos := []Algo{BBR, BBRSuss}
	var jobs []runner.Job
	for _, size := range sizes {
		for _, algo := range algos {
			for it := 0; it < iters; it++ {
				jobs = append(jobs, runner.Job{Scenario: sc, Algo: algo, Size: size, Iter: it})
			}
		}
	}
	out := runner.Run(cfg.ctx, jobs, cfg.pool())
	k := 0
	for range sizes {
		var means []float64
		for range algos {
			b := summarizeBatch(out[k:k+iters], nil)
			k += iters
			res.Incomplete += b.incomplete
			means = append(means, stats.Mean(b.fcts))
		}
		res.FCT = append(res.FCT, means)
		res.Improvement = append(res.Improvement, Improvement(means[0], means[1]))
	}
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
func RunAQMComparison(size int64, opts ...Option) AQMResult {
	cfg := newConfig(opts)
	res := AQMResult{}
	type variant struct {
		name  string
		algo  Algo
		qdisc netsim.QdiscFactory
	}
	variants := []variant{
		{"cubic/drop-tail", Cubic, nil},
		{"cubic/codel", Cubic, netsim.CoDelFactory},
		{"suss/drop-tail", Suss, nil},
	}
	rtt, rate := 100*time.Millisecond, 1e8
	maxRTT := make([]time.Duration, len(variants))
	jobs := make([]runner.Job, len(variants))
	for i, v := range variants {
		bneck := netsim.LinkConfig{Rate: rate, QueueBytes: int(rate / 8 * rtt.Seconds()), Qdisc: v.qdisc}
		jobs[i] = twoHop(v.algo, size, rtt, bneck, &maxRTT[i])
	}
	for i, o := range runner.Run(cfg.ctx, jobs, cfg.pool()) {
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
func twoHop(algo Algo, size int64, rtt time.Duration, bneck netsim.LinkConfig, maxRTT *time.Duration) runner.Job {
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
