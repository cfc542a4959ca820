// Command sussim runs a single simulated download and prints the
// outcome, optionally dumping the cwnd/RTT/delivered trace as CSV —
// the userspace equivalent of the paper's kernel-log instrumentation.
//
// Usage:
//
//	sussim -algo suss -size 4MB -rate 100 -rtt 100ms
//	sussim -scenario google-tokyo/4g -algo cubic -size 2MB
//	sussim -algo suss -size 8MB -trace trace.csv
//	sussim -algo suss -size 2MB -events events.jsonl -counters
//	sussim -chaos
//	sussim -fleet -flows 10000 -shards 4
//	sussim -submit http://127.0.0.1:7077 -spec '{"kind":"fig11","iters":3}'
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"suss"
	"suss/internal/chaos"
	"suss/internal/experiments"
	"suss/internal/runner"
	"suss/internal/trace"
)

func main() {
	algoName := flag.String("algo", "suss", "cubic | suss | bbr | bbr2 | reno")
	sizeStr := flag.String("size", "2MB", "transfer size (e.g. 512KB, 4MB)")
	rate := flag.Float64("rate", 100, "last-hop mean rate in Mbit/s (custom path)")
	rtt := flag.Duration("rtt", 100*time.Millisecond, "propagation RTT (custom path)")
	buffer := flag.Float64("buffer", 0, "bottleneck buffer in BDP (0 = link default)")
	link := flag.String("link", "wired", "wired | wifi | 4g | 5g (custom path)")
	scenario := flag.String("scenario", "", "run a named internet scenario instead (see -list)")
	list := flag.Bool("list", false, "list internet scenarios and exit")
	seed := flag.Int64("seed", 1, "impairment RNG seed")
	kmax := flag.Int("kmax", 0, "SUSS growth exponent bound (0 = paper default 1)")
	tracePath := flag.String("trace", "", "write cwnd/RTT/delivered CSV to this file")
	eventsPath := flag.String("events", "", "record the flight-recorder event log to this file (.jsonl | .csv | anything else = timeline text; \"-\" = timeline to stdout)")
	counters := flag.Bool("counters", false, "dump the flight-recorder flow/link counters after the run")
	chaosRun := flag.Bool("chaos", false, "run the chaos impairment matrix (catalog × algos × seeds) and exit non-zero on any failure")
	fleetRun := flag.Bool("fleet", false, "run a sharded flow population over the shared bottleneck tree, SUSS off vs on, and print per-class FCTs")
	fleetFlows := flag.Int("flows", 0, "with -fleet: total population size (0 = default 10000)")
	fleetShards := flag.Int("shards", 0, "with -fleet: independent tree shards (0 = default 4)")
	fleetArrival := flag.Float64("arrival", 0, "with -fleet: per-shard Poisson arrival rate in flows/s (0 = default)")
	fleetFull := flag.Bool("fullmix", false, "with -fleet: use the full heavy-tailed class mix (64 MB elephants) instead of the CI-sized smoke mix")
	fleetCSV := flag.String("fleetcsv", "", "with -fleet: write the merged per-class FCT CDFs to this CSV file")
	serveAddr := flag.String("serve", "", "serve -size bytes over a real UDP socket on this address (e.g. 127.0.0.1:7000); pair with a -fetch process")
	fetchAddr := flag.String("fetch", "", "fetch -size bytes from a -serve process at this address")
	wireLoss := flag.Float64("wireloss", 0, "with -serve: fraction of outgoing frames to erase at the wire (e.g. 0.05)")
	submitURL := flag.String("submit", "", "submit -spec to a sussd daemon at this base URL (e.g. http://127.0.0.1:7077), wait, and print the result CSV")
	spec := flag.String("spec", "", `with -submit: the job matrix as JSON, e.g. {"kind":"fig11","sizes":[262144],"iters":2,"seed":1}`)
	outPath := flag.String("o", "", "with -submit: write the result CSV here instead of stdout")
	flag.Parse()

	if *submitURL != "" {
		if *spec == "" {
			log.Fatal("-submit needs -spec (a JSON job matrix)")
		}
		if err := runSubmit(*submitURL, *spec, *outPath); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *chaosRun {
		m := chaos.Run(context.Background(), chaos.DefaultOptions())
		fmt.Print(m.Render())
		if len(m.Failures()) > 0 {
			os.Exit(1)
		}
		return
	}

	if *fleetRun {
		if err := fleetSweep(*seed, *fleetFlows, *fleetShards, *fleetArrival, *fleetFull, *fleetCSV); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *list {
		for _, s := range suss.Scenarios() {
			fmt.Println(s)
		}
		return
	}

	algo, err := parseAlgo(*algoName)
	if err != nil {
		log.Fatal(err)
	}
	size, err := parseSize(*sizeStr)
	if err != nil {
		log.Fatal(err)
	}

	if *serveAddr != "" {
		if err := serveFlow(*serveAddr, algo, size, *wireLoss, *seed); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *fetchAddr != "" {
		if err := fetchFlow(*fetchAddr, size); err != nil {
			log.Fatal(err)
		}
		return
	}

	observe := *eventsPath != "" || *counters
	var res suss.Result
	var pts []suss.TracePoint
	var rec *suss.FlightRecorder
	if *scenario != "" {
		if observe {
			log.Fatal("-events/-counters are only available for custom paths (-rate/-rtt), not -scenario")
		}
		res, err = suss.RunScenario(suss.InternetScenario(*scenario), algo, size, *seed)
	} else {
		cfg := suss.PathConfig{
			RateMbps:  *rate,
			RTT:       *rtt,
			BufferBDP: *buffer,
			Link:      suss.LinkType(*link),
			Seed:      *seed,
			Kmax:      *kmax,
		}
		if observe {
			res, pts, rec, err = suss.RunTraceObserved(cfg, algo, size, time.Millisecond)
		} else {
			res, pts, err = suss.RunTrace(cfg, algo, size, time.Millisecond)
		}
	}
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("algo=%s size=%s\n", algo, *sizeStr)
	fmt.Printf("  FCT           %v\n", res.FCT.Round(time.Microsecond))
	fmt.Printf("  goodput       %.2f Mbit/s\n", float64(res.DeliveredBytes)*8/res.FCT.Seconds()/1e6)
	fmt.Printf("  retrans/RTOs  %d / %d\n", res.Retransmissions, res.RTOs)
	fmt.Printf("  loss rate     %.3f%%\n", 100*res.LossRate)
	if algo == suss.CUBICWithSUSS {
		fmt.Printf("  SUSS          max G=%d, %d accelerated rounds\n", res.MaxG, res.AcceleratedRounds)
	}

	if *tracePath != "" {
		if pts == nil {
			log.Fatal("tracing is only available for custom paths (-rate/-rtt), not -scenario")
		}
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := trace.WriteCSV(f, pts); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  trace         %d samples → %s\n", len(pts), *tracePath)
	}

	if *eventsPath != "" {
		if err := writeEvents(rec, *eventsPath); err != nil {
			log.Fatal(err)
		}
	}
	if *counters {
		fmt.Println()
		if err := rec.WriteCounters(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}

// fleetSweep drives the population-scale experiment: the flow fleet is
// sharded over independent bottleneck trees and run twice (SUSS off,
// then on) over the identical population.
func fleetSweep(seed int64, flows, shards int, arrival float64, fullMix bool, csvPath string) error {
	r := experiments.RunFleet(experiments.FleetConfigFor(seed, flows, shards, arrival, fullMix), runner.Options{Progress: func(done, total int) {
		fmt.Fprintf(os.Stderr, "\r[fleet] %d/%d shards", done, total)
		if done == total {
			fmt.Fprintln(os.Stderr)
		}
	}}, false)
	fmt.Print(r.Render())
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := r.WriteCSV(f); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", csvPath)
	}
	if len(r.Errs) > 0 {
		return fmt.Errorf("%d shard(s) failed", len(r.Errs))
	}
	return nil
}

// writeEvents dumps the flight-recorder event log; the format follows
// the file extension (.jsonl, .csv, anything else = timeline text) and
// "-" streams the timeline to stdout.
func writeEvents(rec *suss.FlightRecorder, path string) error {
	if path == "-" {
		return rec.WriteTimeline(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch {
	case strings.HasSuffix(path, ".jsonl"):
		err = rec.WriteEventsJSONL(f)
	case strings.HasSuffix(path, ".csv"):
		err = rec.WriteEventsCSV(f)
	default:
		err = rec.WriteTimeline(f)
	}
	if err != nil {
		return err
	}
	return f.Close()
}

func parseAlgo(s string) (suss.Algorithm, error) {
	switch strings.ToLower(s) {
	case "cubic":
		return suss.CUBIC, nil
	case "suss", "cubic+suss":
		return suss.CUBICWithSUSS, nil
	case "bbr", "bbrv1":
		return suss.BBRv1, nil
	case "bbr2", "bbrv2":
		return suss.BBRv2Lite, nil
	case "reno":
		return suss.Reno, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q", s)
	}
}

func parseSize(s string) (int64, error) {
	s = strings.ToUpper(strings.TrimSpace(s))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "MB"):
		mult, s = 1<<20, strings.TrimSuffix(s, "MB")
	case strings.HasSuffix(s, "KB"):
		mult, s = 1<<10, strings.TrimSuffix(s, "KB")
	case strings.HasSuffix(s, "GB"):
		mult, s = 1<<30, strings.TrimSuffix(s, "GB")
	case strings.HasSuffix(s, "B"):
		s = strings.TrimSuffix(s, "B")
	}
	// A size is a whole number of bytes in [1, MaxInt64]; the negated
	// range test also refuses NaN.
	v, err := strconv.ParseFloat(s, 64)
	b := v * float64(mult)
	if err != nil || !(b >= 1 && b < 1<<63) {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return int64(b), nil
}
