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
//	sussbench -blockprofile block.pprof -mutexprofile mutex.pprof
//
// Sweep experiments fan their independent simulations out over a
// bounded worker pool (internal/runner). Results are collected by job
// index and every simulation is instance-seeded, so the rows printed
// are identical at any -parallel value; only the wall clock changes.
// A progress line is written to stderr, each experiment reports its
// own wall-clock time, and the process exits nonzero if any
// simulation failed to complete.
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
	"suss/internal/scenarios"
)

func main() {
	// run does the actual work; main only translates its code into
	// os.Exit after the profile defers inside run have flushed (an
	// os.Exit inline would truncate the pprof files).
	os.Exit(run())
}

func run() int {
	only := flag.String("only", "", "run a single experiment id (empty = all)")
	iters := flag.Int("iters", 5, "iterations per stochastic data point")
	seed := flag.Int64("seed", 1, "base RNG seed")
	quick := flag.Bool("quick", false, "smaller sweeps for a fast pass")
	outDir := flag.String("out", "", "also write CSV data files to this directory (fig11, matrix)")
	parallel := flag.Int("parallel", 0, "worker pool size for sweep experiments (0 = GOMAXPROCS)")
	noProgress := flag.Bool("no-progress", false, "suppress the stderr progress line")
	counters := flag.Bool("counters", false, "attach flight recorders and print cross-layer loss accounting (fig11)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	blockProfile := flag.String("blockprofile", "", "write a goroutine blocking profile to this file at exit")
	mutexProfile := flag.String("mutexprofile", "", "write a mutex contention profile to this file at exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cannot create -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cannot start CPU profile: %v\n", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(os.Stderr, "wrote CPU profile to %s\n", *cpuProfile)
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "cannot create -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap so the snapshot is meaningful
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "cannot write -memprofile: %v\n", err)
				return
			}
			fmt.Fprintf(os.Stderr, "wrote allocation profile to %s\n", *memProfile)
		}()
	}
	// Block and mutex profiling carry a runtime cost, so the rates are
	// raised from their zero defaults only when a profile was requested.
	if *blockProfile != "" {
		runtime.SetBlockProfileRate(1)
		defer writeProfile("block", *blockProfile)
	}
	if *mutexProfile != "" {
		runtime.SetMutexProfileFraction(1)
		defer writeProfile("mutex", *mutexProfile)
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "cannot create -out dir: %v\n", err)
			return 1
		}
	}
	writeCSV := func(name string, fn func(io.Writer) error) {
		if *outDir == "" {
			return
		}
		path := filepath.Join(*outDir, name)
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "csv %s: %v\n", name, err)
			return
		}
		defer f.Close()
		if err := fn(f); err != nil {
			fmt.Fprintf(os.Stderr, "csv %s: %v\n", name, err)
			return
		}
		fmt.Printf("wrote %s\n", path)
	}

	run := func(id string) bool {
		return *only == "" || strings.EqualFold(*only, id)
	}
	start := time.Now()
	ran := 0
	incomplete := 0

	// opts builds the sweep options for one experiment: the shared
	// worker bound plus a stderr progress line tagged with the id.
	opts := func(id string) []experiments.Option {
		o := []experiments.Option{experiments.WithWorkers(*parallel)}
		if !*noProgress {
			o = append(o, experiments.WithProgress(func(done, total int) {
				fmt.Fprintf(os.Stderr, "\r[%s] %d/%d jobs", id, done, total)
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			}))
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
		fmt.Printf("[%s] finished in %v\n\n", id, time.Since(t0).Round(time.Millisecond))
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
			for _, algo := range []experiments.Algo{experiments.Cubic, experiments.BBR2} {
				emit(experiments.RunFig02(algo, 100*time.Millisecond, 1, joinAt, horizon).Render())
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
			o := opts("fig11")
			if *counters {
				o = append(o, experiments.WithLossAccounting())
			}
			r := experiments.RunFig11(scenarios.GoogleTokyo, sizes, *iters, *seed, o...)
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
			r := experiments.RunFig14(fig14Sizes, *iters, *seed, opts("fig14")...)
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
				emit(experiments.RunFig15(cfg, joinAt, horizon).Render())
			}
		})
	}
	if run("fig16") {
		timed("fig16", func() {
			emit(experiments.RunFig16(experiments.Cubic, experiments.Suss, 100*time.Millisecond, 1, large).Render())
		})
	}
	if run("table1") {
		timed("table1", func() {
			algos := []experiments.Algo{experiments.Cubic, experiments.BBR, experiments.BBR2}
			if *quick {
				algos = algos[:1]
			}
			for _, la := range algos {
				r := experiments.RunTable1(la, large, opts("table1")...)
				incomplete += len(r.Failed)
				emit(r.Render())
			}
		})
	}
	if run("matrix") || run("fig17") || run("fig18") {
		timed("matrix", func() {
			r := experiments.RunMatrix(matrixSizes, *iters, *seed, opts("matrix")...)
			incomplete += r.Incomplete()
			emit(r.Render())
			writeCSV("matrix.csv", r.WriteCSV)
		})
	}
	if run("ablations") {
		timed("ablations", func() {
			mech := experiments.RunAblationMechanisms(4<<20, *iters, *seed, opts("ablations")...)
			incomplete += mech.Incomplete
			emit(mech.Render())
			kmax := experiments.RunAblationKmax(8<<20, *iters, *seed, opts("ablations")...)
			incomplete += kmax.Incomplete
			emit(kmax.Render())
			exit := experiments.RunSlowStartExitComparison(2<<20, *iters, *seed, opts("ablations")...)
			incomplete += exit.Incomplete
			emit(exit.Render())
			aqm := experiments.RunAQMComparison(4<<20, opts("ablations")...)
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
			emit(experiments.RunWebMix(nflows, 3, *seed).Render())
		})
	}
	if run("fleet") {
		timed("fleet", func() {
			fc := experiments.DefaultFleetConfig(*seed)
			if *quick {
				fc.Flows = 2000
			}
			o := opts("fleet")
			if *counters {
				o = append(o, experiments.WithLossAccounting())
			}
			r := experiments.RunFleet(fc, o...)
			incomplete += len(r.Errs)
			emit(r.Render())
			writeCSV("fleet.csv", r.WriteCSV)
		})
	}
	if run("futurework") {
		timed("futurework", func() {
			r := experiments.RunFutureWorkBBRSuss([]int64{512 << 10, 2 << 20, 8 << 20}, *iters, *seed, opts("futurework")...)
			incomplete += r.Incomplete
			emit(r.Render())
		})
	}
	if run("appendixB") {
		timed("appendixB", func() {
			for _, dir := range []string{"drop", "rise"} {
				r := experiments.RunBtlBwVariation(dir, 8<<20, opts("appendixB")...)
				incomplete += len(r.Failed)
				emit(r.Render())
			}
		})
	}

	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *only)
		return 2
	}
	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	fmt.Printf("completed in %v (wall clock, %d workers)\n", time.Since(start).Round(time.Millisecond), workers)
	if incomplete > 0 {
		fmt.Fprintf(os.Stderr, "ERROR: %d simulation(s) did not complete\n", incomplete)
		return 1
	}
	return 0
}

func emit(s string) {
	fmt.Println(s)
}

// writeProfile dumps a named runtime profile ("block", "mutex") at
// exit, mirroring the -memprofile flow.
func writeProfile(name, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cannot create -%sprofile: %v\n", name, err)
		return
	}
	defer f.Close()
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "cannot write -%sprofile: %v\n", name, err)
		return
	}
	fmt.Fprintf(os.Stderr, "wrote %s profile to %s\n", name, path)
}
