// Command bench is the repo's one benchmark: five named workloads,
// six end-to-end metrics every workload reports, a price for every
// layer, and a traced run that says where a pass spends its time.
// BENCHMARK.json at the repo root names the metrics and their bounds;
// README.md in this directory explains each choice.
//
//	bash bench/run.sh                                  every workload, untraced
//	bash bench/run.sh --workload fig11_sweep --seed 7 --seconds 12 --trace 0
//	bash bench/run.sh --workload fleet_10k --trace 1   spans + layer prices
//	bash bench/run.sh -layers                          layer prices only
//	bash bench/run.sh -sets 2                          repeatability check
//	bash bench/run.sh -smoke                           one pass of everything
//
// The last line a run prints is one JSON object with the keys correct,
// attempted, failed and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"time"

	"suss/internal/stats"
)

// metricDef mirrors one entry of BENCHMARK.json; the package test
// keeps the two in step.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64 // end-to-end metrics only
}

// endToEnd lists what a user of the repo waits for or pays. Every
// workload reports every one of them, and none can read zero.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"pass_wall_s", "s", "lower", 0.25},
	{"sim_pkts_per_s", "pkts/s", "higher", 0.25},
	{"allocs_per_pass", "allocs", "lower", 0.12},
	{"cold_cells_per_s", "cells/s", "higher", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
}

// runOpts is one run's configuration, fixed by the flags.
type runOpts struct {
	seed    int64
	seconds float64
	// minPasses is the least number of timed passes, however long one
	// takes.
	minPasses int
	// warmResubmits is how often sussd_matrix resubmits each matrix.
	warmResubmits int
	// setups is how many child processes are timed for setup_s; zero
	// times this process's own set-up instead.
	setups int
	// warmup runs the untimed pass 0. Only -smoke turns it off.
	warmup bool
	outDir string
	// tracedPairs is the least number of untraced and of traced passes
	// a traced run alternates.
	tracedPairs int
	// layerRounds × layerRound is what one layer price is measured for.
	layerRounds int
	layerRound  time.Duration
}

func defaultOpts(outDir string) runOpts {
	return runOpts{
		seed: 1, seconds: runSeconds, minPasses: 5, warmResubmits: 40, setups: 3, warmup: true,
		outDir: outDir, tracedPairs: 3, layerRounds: 5, layerRound: 200 * time.Millisecond,
	}
}

// smoke shrinks a run to one cold pass of everything: enough to see
// that every workload still runs and checks out, useless as a
// measurement.
func (o runOpts) smoke() runOpts {
	o.seconds, o.minPasses, o.warmResubmits, o.setups, o.warmup = 0, 1, 10, 0, false
	o.tracedPairs, o.layerRounds, o.layerRound = 1, 1, time.Millisecond
	return o
}

// report is one untraced run of one workload: the samples behind each
// end-to-end metric and the outcome of the checks.
type report struct {
	workload  string
	passes    int
	attempted int
	failed    int
	errs      []string
	samples   map[string][]float64
}

func (r report) value(metric string) float64 { return median(r.samples[metric]) }

// setupReady is the line a -setup-only child prints once its workload
// is ready for the first timed pass.
const setupReady = "bench: setup ready"

func main() {
	var (
		name      = flag.String("workload", "all", "workload to run, or all")
		seed      = flag.Int64("seed", 1, "workload seed (1 is the development seed, 7 the held-out one)")
		seconds   = flag.Float64("seconds", runSeconds, "timed work per workload")
		trace     = flag.Int("trace", 0, "1 records spans, prices the layers and prints the per-layer metrics")
		layers    = flag.Bool("layers", false, "price each layer and exit")
		sets      = flag.Int("sets", 1, "run the untraced suite this many times and compare the set medians against the bounds")
		smoke     = flag.Bool("smoke", false, "one pass of every workload, no warm-up: a harness check, not a measurement")
		outDir    = flag.String("out", defaultOutDir(), "directory for span files and scratch data")
		setupOnly = flag.Bool("setup-only", false, "internal: set the workload up, report ready, exit")
		manifest  = flag.Bool("manifest", false, "print BENCHMARK.json as this program defines it and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	o := defaultOpts(*outDir)
	o.seed, o.seconds = *seed, *seconds
	if *smoke {
		o = o.smoke()
	}
	if *manifest {
		fmt.Println(string(manifestJSON()))
		return
	}

	var ws []workloadDef
	if *name == "all" {
		ws = workloads()
	} else if w, ok := findWorkload(*name); ok {
		ws = []workloadDef{w}
	} else {
		fatalf("unknown workload %q", *name)
	}

	ok := true
	switch {
	case *setupOnly:
		ok = setupChild(ws[0], o)
	case *layers:
		printLayers(priceLayers(o))
	case *trace != 0:
		// A traced run is budgeted by -seconds like an untraced one: the
		// layer prices share it.
		if o.seconds > 0 {
			o.layerRound = time.Duration(o.seconds / float64(len(layerDefs)*o.layerRounds) * float64(time.Second))
			if o.layerRound < 20*time.Millisecond {
				o.layerRound = 20 * time.Millisecond
			}
		}
		for _, w := range ws {
			ok = runTraced(w, o) && ok
		}
	case *sets > 1:
		ok = runSets(ws, o, *sets)
	default:
		for _, w := range ws {
			r, err := runUntraced(w, o)
			if err != nil {
				fatalf("%s: %v", w.name, err)
			}
			printReport(r, o)
			ok = emit(r.errs, r.attempted, r.failed, endToEnd, func(m string) float64 { return r.value(m) }) && ok
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// runSeconds is the run length BENCHMARK.json asks the driver for.
const runSeconds = 12

// manifestJSON renders BENCHMARK.json from the tables this program
// measures by, so the file cannot name a metric the program does not
// print. The package test compares it with the committed file.
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads() {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer() {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	return buf
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// defaultOutDir is bench/out whether the program is started from the
// repo root (run.sh does) or from this directory.
func defaultOutDir() string {
	if st, err := os.Stat("bench/go.mod"); err == nil && !st.IsDir() {
		return "bench/out"
	}
	return "out"
}

// --- set-up time ---

// prepare sets a workload up to the point where timed passes can
// start: inputs from the seed, the daemon and its cache file, and the
// warm-up pass.
func prepare(w workloadDef, o runOpts) (instance, []string, error) {
	inst, err := w.setup(o.seed, o)
	if err != nil {
		return nil, nil, err
	}
	var errs []string
	if o.warmup {
		errs = inst.pass(0, nil).errs
	}
	return inst, errs, nil
}

func setupChild(w workloadDef, o runOpts) bool {
	inst, errs, err := prepare(w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return false
	}
	fmt.Println(setupReady)
	if err := inst.close(); err != nil {
		errs = append(errs, err.Error())
	}
	for _, e := range errs {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, e)
	}
	return len(errs) == 0
}

// timeSetup starts this program again with -setup-only and times it
// from exec to its ready line. A fresh process pays what a user's
// first run pays — package initialisation, lazily built tables, a cold
// heap — which a second set-up inside one process would hide.
func timeSetup(w workloadDef, o runOpts) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-setup-only", "-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10), "-out", o.outDir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	var ready time.Duration
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if sc.Text() == setupReady {
			ready = time.Since(t0)
		}
	}
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("set-up process: %w", err)
	}
	if ready == 0 {
		return 0, fmt.Errorf("set-up process never reported ready")
	}
	return ready.Seconds(), nil
}

// --- the untraced run ---

func runUntraced(w workloadDef, o runOpts) (report, error) {
	r := report{workload: w.name, samples: make(map[string][]float64)}
	for k := 0; k < o.setups; k++ {
		s, err := timeSetup(w, o)
		if err != nil {
			return r, err
		}
		r.samples["setup_s"] = append(r.samples["setup_s"], s)
	}
	t0 := time.Now()
	inst, errs, err := prepare(w, o)
	if err != nil {
		return r, err
	}
	if o.setups == 0 {
		r.samples["setup_s"] = []float64{time.Since(t0).Seconds()}
	}
	r.errs = errs

	var timed []passStats
	var total time.Duration
	for i := 1; i <= o.minPasses || total.Seconds() < o.seconds; i++ {
		runtime.GC()
		p := inst.pass(i, nil)
		p.index = i
		timed = append(timed, p)
		total += p.wall
	}
	late := inst.finish(timed)
	if err := inst.close(); err != nil {
		late = append(late, err.Error())
	}

	r.passes = len(timed)
	for _, p := range timed {
		r.attempted += p.ops
		if len(p.errs) > 0 {
			r.failed += p.ops // a failed check fails every op of its pass
			r.errs = append(r.errs, p.errs...)
		}
		r.samples["pass_wall_s"] = append(r.samples["pass_wall_s"], p.wall.Seconds())
		r.samples["allocs_per_pass"] = append(r.samples["allocs_per_pass"], float64(p.allocs))
		r.samples["op_ms_p50"] = append(r.samples["op_ms_p50"], median(p.opMs))
		if cold := p.coldWall.Seconds(); cold > 0 {
			r.samples["cold_cells_per_s"] = append(r.samples["cold_cells_per_s"], float64(p.cells)/cold)
			if p.segs > 0 {
				r.samples["sim_pkts_per_s"] = append(r.samples["sim_pkts_per_s"], float64(p.segs)/cold)
			}
		}
	}
	r.errs = append(r.errs, late...)
	if r.failed == 0 && len(r.errs) > 0 {
		// A check outside the timed passes failed — the warm-up's, or the
		// reference computed afterwards. It condemns one pass's ops.
		r.failed = timed[0].ops
	}
	return r, nil
}

func printReport(r report, o runOpts) {
	fmt.Printf("workload %s seed %d: %d timed passes, %d ops attempted, %d failed\n", r.workload, o.seed, r.passes, r.attempted, r.failed)
	fmt.Printf("  %-18s %-8s %-7s %4s %14s %14s %14s %14s\n", "metric", "unit", "better", "n", "median", "q1", "q3", "min")
	for _, m := range endToEnd {
		s := summarize(r.samples[m.Name])
		fmt.Printf("  %-18s %-8s %-7s %4d %14.6g %14.6g %14.6g %14.6g\n", m.Name, m.Unit, m.Better, s.N, s.Median, s.Q1, s.Q3, s.Min)
	}
	for _, e := range r.errs {
		fmt.Printf("  FAILED CHECK: %s\n", e)
	}
}

// emit prints the run's last line: the JSON object the driver reads.
// It reports whether the run was correct.
func emit(errs []string, attempted, failed int, defs []metricDef, value func(string) float64) bool {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: len(errs) == 0 && failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]mv)}
	for _, m := range defs {
		v := value(m.Name)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
			out.Correct = false
		}
		out.Metrics[m.Name] = mv{v, m.Unit}
	}
	buf, err := json.Marshal(out)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(buf))
	return out.Correct
}

// --- -sets N: the repeatability criterion as a command ---

func runSets(ws []workloadDef, o runOpts, n int) bool {
	all := make([]map[string]report, n)
	ok := true
	for s := 0; s < n; s++ {
		all[s] = make(map[string]report)
		for _, w := range ws {
			r, err := runUntraced(w, o)
			if err != nil {
				fatalf("%s: %v", w.name, err)
			}
			fmt.Printf("set %d ", s+1)
			printReport(r, o)
			ok = ok && len(r.errs) == 0
			all[s][w.name] = r
		}
	}
	fmt.Printf("\n%-14s %-18s %14s %14s %9s %7s\n", "workload", "metric", "lowest median", "highest median", "rel.diff", "bound")
	for _, w := range ws {
		for _, m := range endToEnd {
			lo, hi := math.Inf(1), math.Inf(-1)
			for s := 0; s < n; s++ {
				v := all[s][w.name].value(m.Name)
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			rel := (hi - lo) / lo
			verdict := ""
			if rel > m.Bound {
				verdict = "  EXCEEDED"
				ok = false
			}
			fmt.Printf("%-14s %-18s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", w.name, m.Name, lo, hi, 100*rel, 100*m.Bound, verdict)
		}
	}
	return ok
}

// --- the traced run ---

func runTraced(w workloadDef, o runOpts) bool {
	inst, errs, err := prepare(w, o)
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	rec := newSpanRecorder(w.name)
	var plain, traced []passStats
	// Alternate so that drift of the machine hits both kinds alike, and
	// keep alternating while the pairs fit in half the run's seconds:
	// the overhead ratio is a quotient of two noisy times.
	var spent time.Duration
	for k := 0; k < o.tracedPairs || spent.Seconds() < o.seconds/2; k++ {
		for _, r := range []*spanRecorder{nil, rec} {
			runtime.GC()
			i := len(plain) + len(traced) + 1
			p := inst.pass(i, r)
			p.index = i
			spent += p.wall
			errs = append(errs, p.errs...)
			if r == nil {
				plain = append(plain, p)
			} else {
				traced = append(traced, p)
			}
		}
	}
	errs = append(errs, inst.finish(plain)...)

	vals := make(map[string]float64, len(perLayer()))
	var cellMs []float64
	var simSec, wallSec float64
	attempted := 0
	for _, p := range plain {
		cellMs = append(cellMs, p.opMs...)
		simSec += p.simSec
		wallSec += p.coldWall.Seconds()
	}
	for _, p := range append(plain, traced...) {
		attempted += p.ops
	}
	vals["runner.sim_s_per_wall_s"] = simSec / wallSec
	if d, ok := inst.(*sussdInstance); ok {
		// Its ops are submissions; the only single cells it has seen are
		// those of its in-process reference run.
		cellMs, simSec = d.refLaps, 0
		for _, r := range d.refResults {
			simSec += r.FCT.Seconds()
		}
		vals["runner.sim_s_per_wall_s"] = simSec / d.refWall.Seconds()
	}
	vals["runner.cell_ms_p50"] = stats.Percentile(cellMs, 50)
	vals["runner.cell_ms_p90"] = stats.Percentile(cellMs, 90)
	vals["runner.cell_ms_p99"] = stats.Percentile(cellMs, 99)

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	vals["runner.live_heap_mb"] = float64(ms.HeapInuse) / (1 << 20)
	if err := inst.close(); err != nil {
		errs = append(errs, err.Error())
	}

	ratios := make([]float64, len(traced))
	for k := range traced {
		ratios[k] = traced[k].wall.Seconds() / plain[k].wall.Seconds()
	}
	vals["trace.overhead_ratio"] = median(ratios)
	shares := selfShares(rec.spans)
	for _, name := range spanNames {
		vals["span."+name+"_share"] = shares[name]
	}
	vals["span.unspanned_share"] = shares[passRoot]
	path, err := rec.write(o.outDir)
	if err != nil {
		errs = append(errs, err.Error())
	}

	prices, _ := priceLayers(o)
	for name, v := range prices {
		vals[name] = v
	}
	var count opCounts
	for _, p := range traced {
		count.add(p.counts)
	}
	vals["netsim.run.unattributed_share"] = count.unattributedShare(prices)

	fmt.Printf("workload %s seed %d traced: %d untraced + %d traced passes, %d spans in %s\n", w.name, o.seed, len(plain), len(traced), len(rec.spans), path)
	printValues(vals)
	for _, e := range errs {
		fmt.Printf("  FAILED CHECK: %s\n", e)
	}
	failed := 0
	if len(errs) > 0 {
		failed = attempted
	}
	return emit(errs, attempted, failed, perLayer(), func(m string) float64 { return vals[m] })
}

// spanNames are the layer spans a traced pass can record; a workload
// that never enters one reports a zero share for it.
var spanNames = []string{
	"workload.shard_gen", "scenarios.build", "tcp.flow_setup", "netsim.run", "runner.collect", "experiments.fold",
	"service.submit", "service.wait", "service.read_csv", "confhash.keys", "cache.get",
}

// perLayer is every metric a traced run prints: the layer prices plus
// what the spans and the workload's own passes say.
func perLayer() []metricDef {
	defs := append([]metricDef(nil), layerDefs...)
	for _, name := range spanNames {
		defs = append(defs, metricDef{Name: "span." + name + "_share", Unit: "ratio", Better: "lower"})
	}
	return append(defs,
		metricDef{Name: "span.unspanned_share", Unit: "ratio", Better: "lower"},
		metricDef{Name: "netsim.run.unattributed_share", Unit: "ratio", Better: "lower"},
		metricDef{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
		metricDef{Name: "runner.cell_ms_p50", Unit: "ms", Better: "lower"},
		metricDef{Name: "runner.cell_ms_p90", Unit: "ms", Better: "lower"},
		metricDef{Name: "runner.cell_ms_p99", Unit: "ms", Better: "lower"},
		metricDef{Name: "runner.live_heap_mb", Unit: "MB", Better: "lower"},
		metricDef{Name: "runner.sim_s_per_wall_s", Unit: "ratio", Better: "higher"},
	)
}

func printValues(vals map[string]float64) {
	units := make(map[string]string)
	for _, m := range perLayer() {
		units[m.Name] = m.Unit
	}
	names := make([]string, 0, len(vals))
	for name := range vals {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-34s %14.6g %s\n", name, vals[name], units[name])
	}
}

func printLayers(prices map[string]float64, n map[string]int) {
	fmt.Printf("  %-34s %14s %-7s %4s\n", "layer price (median of n samples)", "value", "unit", "n")
	for _, m := range layerDefs {
		fmt.Printf("  %-34s %14.6g %-7s %4d\n", m.Name, prices[m.Name], m.Unit, n[m.Name])
	}
}
