// Command sussbench regenerates the paper's evaluation: every figure
// and table of §6 plus the appendix experiments, printed as rows
// shaped like the paper's plots.
//
// Usage:
//
//	sussbench                 # everything at default fidelity
//	sussbench -only fig11     # one experiment
//	sussbench -iters 10       # more repetitions per data point
//	sussbench -quick          # reduced sweep for a fast smoke pass
//	sussbench -parallel 8     # worker pool size (0 = GOMAXPROCS)
//	sussbench -only fig11 -counters   # cross-layer loss accounting
//	sussbench -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Sweep experiments fan their independent simulations out over a
// bounded worker pool (internal/runner). Results are collected by job
// index and every simulation is instance-seeded, so the rows printed
// are identical at any -parallel value; only the wall clock changes.
// A progress line is written to stderr, each experiment reports its
// own wall-clock time, and the process exits nonzero if any
// simulation failed to complete or an -out CSV file was not written.
//
// Experiment ids: fig01 fig02 fig09 fig11 fig13 fig14 fig15 fig16
// table1 matrix (= fig17+fig18) ablations webmix fleet futurework
// appendixB.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"suss/internal/experiments"
	"suss/internal/runner"
	"suss/internal/scenarios"
)

func main() {
	// run does the actual work; main only translates its code into
	// os.Exit after the profile defers inside run have flushed (an
	// os.Exit inline would truncate the pprof files).
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args and runs the selected experiments, printing rows to
// stdout and progress, profiles and errors to stderr. It returns the
// process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sussbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "run a single experiment id (empty = all)")
	iters := fs.Int("iters", 5, "iterations per stochastic data point")
	seed := fs.Int64("seed", 1, "base RNG seed")
	quick := fs.Bool("quick", false, "smaller sweeps for a fast pass")
	outDir := fs.String("out", "", "also write CSV data files to this directory (fig11, matrix, fleet)")
	parallel := fs.Int("parallel", 0, "worker pool size for sweep experiments (0 = GOMAXPROCS)")
	noProgress := fs.Bool("no-progress", false, "suppress the stderr progress line")
	counters := fs.Bool("counters", false, "attach flight recorders and print cross-layer loss accounting (fig11, fleet)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "cannot create -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "cannot start CPU profile: %v\n", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(stderr, "wrote CPU profile to %s\n", *cpuProfile)
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(stderr, "cannot create -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap so the snapshot is meaningful
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(stderr, "cannot write -memprofile: %v\n", err)
				return
			}
			fmt.Fprintf(stderr, "wrote allocation profile to %s\n", *memProfile)
		}()
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "cannot create -out dir: %v\n", err)
			return 1
		}
	}
	csvFailed := 0
	writeCSV := func(name string, fn func(io.Writer) error) {
		if *outDir == "" {
			return
		}
		path := filepath.Join(*outDir, name)
		if err := createFile(path, fn); err != nil {
			fmt.Fprintf(stderr, "csv %s: %v\n", name, err)
			csvFailed++
			return
		}
		fmt.Fprintf(stdout, "wrote %s\n", path)
	}

	run := func(id string) bool {
		return *only == "" || strings.EqualFold(*only, id)
	}
	emit := func(s string) { fmt.Fprintln(stdout, s) }
	start := time.Now()
	ran := 0
	incomplete := 0

	// opts builds the pool options for one experiment: the shared
	// worker bound plus a stderr progress line tagged with the id.
	opts := func(id string) runner.Options {
		o := runner.Options{Workers: *parallel}
		if !*noProgress {
			o.Progress = func(done, total int) {
				fmt.Fprintf(stderr, "\r[%s] %d/%d jobs", id, done, total)
				if done == total {
					fmt.Fprintln(stderr)
				}
			}
		}
		return o
	}
	// timed runs one experiment's body and prints its own wall clock,
	// so -parallel speedups are visible per experiment, not just in
	// the final total.
	timed := func(id string, fn func()) {
		ran++
		t0 := time.Now()
		fn()
		fmt.Fprintf(stdout, "[%s] finished in %v\n\n", id, time.Since(t0).Round(time.Millisecond))
	}

	sizes := experiments.DefaultSizes
	matrixSizes := []int64{1 << 20, 2 << 20, 4 << 20, 8 << 20, 12 << 20}
	fig14Sizes := []int64{2 << 20, 4 << 20, 8 << 20, 16 << 20, 24 << 20, 40 << 20}
	large := int64(100 << 20)
	joinAt, horizon := 30*time.Second, 75*time.Second
	if *quick {
		sizes = []int64{512 << 10, 2 << 20, 8 << 20}
		matrixSizes = []int64{2 << 20, 8 << 20}
		fig14Sizes = []int64{2 << 20, 8 << 20, 24 << 20}
		large = 40 << 20
		joinAt, horizon = 15*time.Second, 40*time.Second
	}

	if run("fig01") {
		timed("fig01", func() {
			emit(experiments.RunFig01(60<<20, *seed).Render())
		})
	}
	if run("fig02") {
		timed("fig02", func() {
			// The BBR panel uses the v2-lite model: our BBRv1 model keeps
			// the buffer pinned and starves late joiners (the known
			// BBRv1-vs-droptail pathology); v2's loss-bounded inflight
			// reproduces the paper's Fig. 2(b) convergence. See
			// EXPERIMENTS.md.
			for _, algo := range []runner.Algo{runner.Cubic, runner.BBR2} {
				emit(experiments.RunFig02(algo, 100*time.Millisecond, 1, joinAt, horizon, opts("fig02")).Render())
			}
		})
	}
	if run("fig09") || run("fig10") {
		timed("fig09", func() {
			emit(experiments.RunFig09(25<<20, *seed).Render())
		})
	}
	if run("fig11") || run("fig12") {
		timed("fig11", func() {
			r := experiments.RunFig11(scenarios.GoogleTokyo, sizes, *iters, *seed, opts("fig11"), *counters)
			incomplete += r.Incomplete
			emit(r.Render())
			writeCSV("fig11.csv", r.WriteCSV)
		})
	}
	if run("fig13") {
		timed("fig13", func() {
			emit(experiments.RunFig13(*seed).Render())
		})
	}
	if run("fig14") {
		timed("fig14", func() {
			r := experiments.RunFig14(fig14Sizes, *iters, *seed, opts("fig14"))
			incomplete += r.Incomplete
			emit(r.Render())
		})
	}
	if run("fig15") {
		timed("fig15", func() {
			cfgs := experiments.Fig15Configs()
			if *quick {
				cfgs = cfgs[:4]
			}
			for _, cfg := range cfgs {
				emit(experiments.RunFig15(cfg, joinAt, horizon, opts("fig15")).Render())
			}
		})
	}
	if run("fig16") {
		timed("fig16", func() {
			emit(experiments.RunFig16(runner.Cubic, runner.Suss, 100*time.Millisecond, 1, large, opts("fig16")).Render())
		})
	}
	if run("table1") {
		timed("table1", func() {
			algos := []runner.Algo{runner.Cubic, runner.BBR, runner.BBR2}
			if *quick {
				algos = algos[:1]
			}
			for _, la := range algos {
				r := experiments.RunTable1(la, large, opts("table1"))
				incomplete += len(r.Failed)
				emit(r.Render())
			}
		})
	}
	if run("matrix") || run("fig17") || run("fig18") {
		timed("matrix", func() {
			r := experiments.RunMatrix(matrixSizes, *iters, *seed, opts("matrix"))
			incomplete += r.Incomplete()
			emit(r.Render())
			writeCSV("matrix.csv", r.WriteCSV)
		})
	}
	if run("ablations") {
		timed("ablations", func() {
			mech := experiments.RunAblationMechanisms(4<<20, *iters, *seed, opts("ablations"))
			incomplete += mech.Incomplete
			emit(mech.Render())
			kmax := experiments.RunAblationKmax(8<<20, *iters, *seed, opts("ablations"))
			incomplete += kmax.Incomplete
			emit(kmax.Render())
			exit := experiments.RunSlowStartExitComparison(2<<20, *iters, *seed, opts("ablations"))
			incomplete += exit.Incomplete
			emit(exit.Render())
			aqm := experiments.RunAQMComparison(4<<20, opts("ablations"))
			incomplete += aqm.Incomplete
			emit(aqm.Render())
		})
	}
	if run("webmix") {
		timed("webmix", func() {
			nflows := 120
			if *quick {
				nflows = 40
			}
			emit(experiments.RunWebMix(nflows, 3, *seed, opts("webmix")).Render())
		})
	}
	if run("fleet") {
		timed("fleet", func() {
			fc := experiments.DefaultFleetConfig(*seed)
			if *quick {
				fc.Flows = 2000
			}
			r := experiments.RunFleet(fc, opts("fleet"), *counters)
			incomplete += len(r.Errs)
			emit(r.Render())
			writeCSV("fleet.csv", r.WriteCSV)
		})
	}
	if run("futurework") {
		timed("futurework", func() {
			r := experiments.RunFutureWorkBBRSuss([]int64{512 << 10, 2 << 20, 8 << 20}, *iters, *seed, opts("futurework"))
			incomplete += r.Incomplete
			emit(r.Render())
		})
	}
	if run("appendixB") {
		timed("appendixB", func() {
			for _, dir := range []string{"drop", "rise"} {
				r := experiments.RunBtlBwVariation(dir, 8<<20, opts("appendixB"))
				incomplete += len(r.Failed)
				emit(r.Render())
			}
		})
	}

	if ran == 0 {
		fmt.Fprintf(stderr, "unknown experiment %q\n", *only)
		return 2
	}
	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(stdout, "completed in %v (wall clock, %d workers)\n", time.Since(start).Round(time.Millisecond), workers)
	if incomplete > 0 {
		fmt.Fprintf(stderr, "ERROR: %d simulation(s) did not complete\n", incomplete)
	}
	if csvFailed > 0 {
		fmt.Fprintf(stderr, "ERROR: %d CSV file(s) not written\n", csvFailed)
	}
	if incomplete > 0 || csvFailed > 0 {
		return 1
	}
	return 0
}

// createFile writes path through fn; a failed create, write or close
// is its error.
func createFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
