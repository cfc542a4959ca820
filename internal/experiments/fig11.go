package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"suss/internal/netem"
	"suss/internal/obs"
	"suss/internal/runner"
	"suss/internal/scenarios"
	"suss/internal/stats"
)

// Fig11Result reproduces Fig. 11 (FCT vs flow size for BBR, CUBIC with
// SUSS on, and CUBIC with SUSS off, on the Tokyo server across the
// four last-hop types) and, derived from it, Fig. 12 (the relative FCT
// improvement SUSS brings to CUBIC).
type Fig11Result struct {
	Server scenarios.Server
	Links  []netem.LinkType
	Sizes  []int64
	Algos  []runner.Algo
	// FCT[link][size][algo] summarizes iters downloads (seconds).
	FCT [][][]stats.Summary
	// Improvement[link][size] is Fig. 12's (cubic−suss)/cubic.
	Improvement [][]float64
	// Incomplete counts downloads that never finished; they are
	// excluded from the summaries.
	Incomplete int
	// Ledgers[link] aggregates the cross-layer loss accounting over
	// every download of that link type (nil unless the sweep ran with
	// loss accounting).
	Ledgers []obs.LossLedger
}

// Fig11Links is the sweep's last-hop column order.
func Fig11Links() []netem.LinkType {
	return []netem.LinkType{netem.NR5G, netem.Wired, netem.WiFi, netem.LTE4G}
}

// Fig11Algos is the sweep's algorithm row order.
func Fig11Algos() []runner.Algo { return []runner.Algo{runner.BBR, runner.Suss, runner.Cubic} }

// fig11Variants are Fig11Algos as sweep templates. Fig. 12's
// improvement is column 1 (cubic+suss) over column 2 (cubic), as in
// matrixVariants.
var fig11Variants = variants(Fig11Algos()...)

// Fig11Jobs declares the sweep — link types × flow sizes × algorithms ×
// iterations — as a plain job slice in the exact order Fig11FromResults
// consumes. Extracted so callers that execute jobs themselves (the
// experiment service caches them individually) build the identical
// matrix the in-process sweep runs.
func Fig11Jobs(server scenarios.Server, sizes []int64, iters int, seed int64) []runner.Job {
	links := Fig11Links()
	jobs := make([]runner.Job, 0, len(links)*len(sizes)*len(fig11Variants)*max(iters, 0))
	for li, lt := range links {
		jobs = sweep(jobs, scenarios.New(server, lt, seed+int64(li)), sizes, fig11Variants, iters)
	}
	return jobs
}

// RunFig11 runs the whole sweep as one batch on the worker pool and
// aggregates the results back into the figure's grid. lossAcct attaches
// a flight recorder to every download and aggregates the per-link
// loss ledgers into the result.
func RunFig11(server scenarios.Server, sizes []int64, iters int, seed int64, opt runner.Options, lossAcct bool) Fig11Result {
	jobs := Fig11Jobs(server, sizes, iters, seed)
	for i := range jobs {
		jobs[i].Observe = lossAcct
	}
	out := runner.Run(context.Background(), jobs, opt)
	return Fig11FromResults(server, sizes, iters, out, lossAcct)
}

// Fig11FromResults aggregates a result slice laid out like Fig11Jobs
// into the figure's grid. lossAcct aggregates the per-download ledgers
// (results must then carry them, i.e. the jobs ran observed).
func Fig11FromResults(server scenarios.Server, sizes []int64, iters int, out []runner.Result, lossAcct bool) Fig11Result {
	res := Fig11Result{
		Server: server,
		Links:  Fig11Links(),
		Sizes:  sizes,
		Algos:  Fig11Algos(),
	}
	if want := len(res.Links) * len(sizes) * len(res.Algos) * iters; len(out) != want {
		panic(fmt.Sprintf("experiments: Fig11FromResults got %d results, want %d", len(out), want))
	}
	if lossAcct {
		res.Ledgers = make([]obs.LossLedger, len(res.Links))
	}

	per := len(sizes) * len(res.Algos) * iters
	res.FCT, res.Improvement = make([][][]stats.Summary, len(res.Links)), make([][]float64, len(res.Links))
	for li := range res.Links {
		link := out[li*per:][:per]
		res.FCT[li], _ = fold(link, sizes, fig11Variants, iters, &res.Incomplete)
		res.Improvement[li] = improvement(res.FCT[li], 2, 1)
		for _, r := range link {
			if lossAcct && r.Ledger != nil {
				res.Ledgers[li].Add(*r.Ledger)
			}
		}
	}
	return res
}

// Render prints the FCT grid plus the Fig. 12 improvement rows.
func (r Fig11Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 11/12 — FCT vs flow size, server %s\n", r.Server)
	for li, lt := range r.Links {
		fmt.Fprintf(&b, "  last hop %s:\n", lt)
		fmt.Fprintf(&b, "    %-8s", "size")
		for _, a := range r.Algos {
			fmt.Fprintf(&b, " %12s", a)
		}
		fmt.Fprintf(&b, " %12s\n", "improvement")
		for si, size := range r.Sizes {
			fmt.Fprintf(&b, "    %-8s", SizeLabel(size))
			for ai := range r.Algos {
				s := r.FCT[li][si][ai]
				fmt.Fprintf(&b, " %8.3fs±%.2f", s.Mean, s.StdDev)
			}
			fmt.Fprintf(&b, " %11.1f%%\n", 100*r.Improvement[li][si])
		}
	}
	if r.Incomplete > 0 {
		fmt.Fprintf(&b, "  WARNING: %d download(s) did not complete (excluded)\n", r.Incomplete)
	}
	if len(r.Ledgers) > 0 {
		fmt.Fprintf(&b, "  loss accounting (all algos × sizes × iters per link type):\n")
		for li, lt := range r.Links {
			l := r.Ledgers[li]
			fmt.Fprintf(&b, "    %-6s sent=%d retrans=%d (fast=%d rto=%d tlp=%d) detected=%d spurious=%d rtos=%d tlps=%d path_drops=%d erasures=%d\n",
				lt, l.SegsSent, l.SegsRetrans, l.RetransFast, l.RetransRTO, l.RetransTLP,
				l.LossDetected, l.SpuriousRetrans, l.RTOFires, l.TLPFires, l.PathDataDrops, l.PathErasures)
			for _, p := range l.Check() {
				fmt.Fprintf(&b, "      INCONSISTENT: %s\n", p)
			}
		}
	}
	return b.String()
}

// SmallFlowImprovement returns the mean Fig. 12 improvement over sizes
// ≤ maxSize (the paper's ">20% for flows ≤2 MB" claim).
func (r Fig11Result) SmallFlowImprovement(maxSize int64) float64 {
	var xs []float64
	for li := range r.Links {
		for si, size := range r.Sizes {
			if size <= maxSize {
				xs = append(xs, r.Improvement[li][si])
			}
		}
	}
	return stats.Mean(xs)
}

// Fig13Result reproduces Fig. 13: a 100 MB cloud-to-cloud transfer
// (US-East → Sydney) where SUSS's gain appears in the early megabytes
// and tapers to nothing.
type Fig13Result struct {
	// Checkpoints are delivered-volume marks (bytes).
	Checkpoints []int64
	// TimeAt[variant][i] is when the variant (0=off, 1=on) had
	// delivered Checkpoints[i].
	TimeAt [2][]time.Duration
	// ImprovementAt[i] is the relative time saving at checkpoint i.
	ImprovementAt []float64
	// TotalImprovement is the end-to-end FCT gain (should be ≈0).
	TotalImprovement float64
}

// RunFig13 runs the large-flow experiment.
func RunFig13(seed int64) Fig13Result {
	size := int64(100 << 20)
	var res Fig13Result
	for _, mb := range []int64{1, 2, 5, 10, 20, 50, 100} {
		res.Checkpoints = append(res.Checkpoints, mb<<20)
	}

	// US-East ↔ Sydney cloud-to-cloud: 200 ms RTT at a mature
	// intercontinental 100 Mbps, so the 100 MB transfer spends most of
	// its life in steady state and the slow-start saving washes out,
	// as in the paper.
	sc := scenarios.Scenario{
		Server:   scenarios.GoogleUSEast,
		Link:     netem.Wired,
		RTT:      200 * time.Millisecond,
		LastHop:  netem.DefaultProfile(netem.Wired, 1e8),
		CoreRate: 1e9,
		Seed:     seed,
	}
	for variant, v := range offOn {
		v.Scenario, v.Size = sc, size
		_, tr := downloadTrace(v, 0)
		for _, cp := range res.Checkpoints {
			t, ok := tr.TimeToDeliver(cp)
			if !ok {
				t = -1
			}
			res.TimeAt[variant] = append(res.TimeAt[variant], t)
		}
	}
	for i := range res.Checkpoints {
		off, on := res.TimeAt[0][i], res.TimeAt[1][i]
		res.ImprovementAt = append(res.ImprovementAt, Improvement(off.Seconds(), on.Seconds()))
	}
	res.TotalImprovement = res.ImprovementAt[len(res.ImprovementAt)-1]
	return res
}

// Render prints improvement vs progress.
func (r Fig13Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 13 — 100 MB US-East → Sydney, SUSS gain vs transfer progress\n")
	for i, cp := range r.Checkpoints {
		fmt.Fprintf(&b, "  at %6s: off=%-10v on=%-10v improvement=%5.1f%%\n",
			SizeLabel(cp), r.TimeAt[0][i].Round(time.Millisecond), r.TimeAt[1][i].Round(time.Millisecond),
			100*r.ImprovementAt[i])
	}
	fmt.Fprintf(&b, "  total FCT improvement: %.1f%% (paper: tapers to ≈0)\n", 100*r.TotalImprovement)
	return b.String()
}

// WriteCSV emits the Fig. 11/12 grid as CSV rows:
// link,size_bytes,algo,fct_mean_s,fct_std_s,improvement.
func (r Fig11Result) WriteCSV(w io.Writer) error {
	const header = "link,size_bytes,algo,fct_mean_s,fct_std_s,improvement\n"
	b := make([]byte, 0, len(header)+64*len(r.Links)*len(r.Sizes)*len(r.Algos))
	b = append(b, header...)
	for li, lt := range r.Links {
		for si, size := range r.Sizes {
			for ai, a := range r.Algos {
				s := r.FCT[li][si][ai]
				b = append(append(b, lt.String()...), ',')
				b = append(strconv.AppendInt(b, size, 10), ',')
				b = append(append(b, a.String()...), ',')
				b = append(appendFixed(b, s.Mean, 6), ',')
				b = append(appendFixed(b, s.StdDev, 6), ',')
				b = append(appendFixed(b, r.Improvement[li][si], 4), '\n')
			}
		}
	}
	_, err := w.Write(b)
	return err
}

// tenPow[k+17] is the least float64 ≥ 10^k, k in [-17, 18], so x ≥
// tenPow[k+17] is x ≥ 10^k exactly, though 10^k (k < 0) is no float64.
var tenPow = func() (t [36]float64) {
	for i := range t {
		t[i], _ = strconv.ParseFloat("1e"+strconv.Itoa(i-17), 64) // the nearest float64
		if strconv.FormatFloat(t[i], 'e', 30, 64)[0] == '9' {     // below 10^k
			t[i] = math.Nextafter(t[i], 1)
		}
	}
	return t
}()

// appendFixed appends strconv.AppendFloat(b, x, 'f', prec, 64), which
// only strconv's multiprecision path formats. It asks for the same n
// digits in 'e' form, which its fast path rounds alike (to nearest, ties
// to even) when n ≤ 18 and 10^-17 ≤ |x| < 10^18, and lays them out as
// 'f' does; otherwise it calls 'f'.
func appendFixed(b []byte, x float64, prec int) []byte {
	ax := math.Abs(x)
	_, e2 := math.Frexp(ax)
	e, in := (e2-1)*78913>>18, ax >= tenPow[0] && ax < tenPow[35] // e = floor((e2-1)·log10 2)
	if in && ax >= tenPow[e+18] {
		e++ // now e = floor(log10(ax)), and 'f' prints n = e+1+prec digits
	}
	if !in || prec < 0 || e+prec < 0 || e+prec > 17 {
		return strconv.AppendFloat(b, x, 'f', prec, 64)
	}
	var buf [32]byte
	d := strconv.AppendFloat(buf[:0], ax, 'e', e+prec, 64) // D.DDDe±XX, or De±XX
	ex, _ := strconv.Atoi(string(d[len(d)-3:]))            // ±XX: |ex| ≤ 18 has two digits
	digits := append(d[:1], d[2:e+prec+2]...)
	if ex != e { // rounding carried to 10^(e+1), one digit longer in 'f'
		digits = append(digits, '0')
	}
	if math.Signbit(x) {
		b = append(b, '-')
	}
	if ex < 0 {
		for b = append(b, "0."...); ex < -1; ex++ {
			b = append(b, '0')
		}
		return append(b, digits...)
	}
	if b = append(b, digits[:ex+1]...); prec > 0 {
		b = append(append(b, '.'), digits[ex+1:]...)
	}
	return b
}
