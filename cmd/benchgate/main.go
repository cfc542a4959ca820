// Command benchgate records and enforces benchmark baselines. It
// reads `go test -bench -benchmem` output on stdin, reduces each
// benchmark to its best sample across -count repeats (min ns/op, min
// B/op, min allocs/op — the least-noise estimate of the code's true
// cost), and either writes that reduction as a JSON baseline or
// compares it against a committed one.
//
//	go test -run '^$' -bench Fig11 -benchmem -count 5 . | benchgate -record BENCH_fig11.json
//	go test -run '^$' -bench Fig11 -benchmem -count 5 . | benchgate -compare BENCH_fig11.json
//
// Compare fails (exit 1) when a baselined benchmark is missing, its
// ns/op regresses by more than -tolerance (default 10%), or its
// allocs/op increases by more than -allocslack (default 0) —
// allocation counts in a deterministic simulation are a property of
// the code, not the machine, so any increase is a real regression.
// The slack exists for benchmarks whose alloc count carries a few
// counts of irreducible runtime noise (Go randomizes each map's hash
// seed, so overflow-bucket allocation wobbles run to run); set it far
// below the smallest regression worth catching. ns/op comparisons
// across different machines are inherently loose; the tolerance is
// tuned for same-class hardware (a CI runner against a baseline
// recorded on one).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Bench is one benchmark's best-of-N reduction.
type Bench struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"b_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Samples     int     `json:"samples"`
}

// Baseline is the committed artifact.
type Baseline struct {
	Recorded   string           `json:"recorded"`
	GoVersion  string           `json:"go_version"`
	Benchmarks map[string]Bench `json:"benchmarks"`
}

func main() {
	record := flag.String("record", "", "write the baseline JSON to this file")
	compare := flag.String("compare", "", "compare stdin against this baseline JSON")
	tolerance := flag.Float64("tolerance", 0.10, "allowed relative ns/op regression")
	allocSlack := flag.Float64("allocslack", 0, "allowed absolute allocs/op increase")
	flag.Parse()
	if (*record == "") == (*compare == "") {
		fmt.Fprintln(os.Stderr, "benchgate: exactly one of -record or -compare is required")
		os.Exit(2)
	}

	got, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	if len(got) == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no benchmark lines on stdin")
		os.Exit(2)
	}

	if *record != "" {
		b := Baseline{
			Recorded:   time.Now().UTC().Format(time.RFC3339),
			GoVersion:  runtime.Version(),
			Benchmarks: got,
		}
		out, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*record, append(out, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(2)
		}
		fmt.Printf("benchgate: recorded %d benchmark(s) to %s\n", len(got), *record)
		return
	}

	raw, err := os.ReadFile(*compare)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %s: %v\n", *compare, err)
		os.Exit(2)
	}
	failures := diff(base.Benchmarks, got, *tolerance, *allocSlack)
	for _, f := range failures {
		fmt.Println("FAIL:", f)
	}
	report(base.Benchmarks, got)
	if len(failures) > 0 {
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d benchmark(s) within tolerance of %s\n", len(base.Benchmarks), *compare)
}

// benchLine matches `go test -bench` result rows:
//
//	BenchmarkName/sub-8   	 100	  123456 ns/op	  12 B/op	 3 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+(.*)$`)

// stripProcs removes the trailing -GOMAXPROCS suffix so baselines
// recorded on an N-core machine match runs on an M-core one.
func stripProcs(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// parse reduces bench output to best-of-N per benchmark.
func parse(r io.Reader) (map[string]Bench, error) {
	out := make(map[string]Bench)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := stripProcs(m[1])
		var ns, bytes, allocs float64
		ns = -1
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				ns = v
			case "B/op":
				bytes = v
			case "allocs/op":
				allocs = v
			}
		}
		if ns < 0 {
			continue
		}
		b, seen := out[name]
		if !seen || ns < b.NsPerOp {
			b.NsPerOp = ns
		}
		if !seen || bytes < b.BytesPerOp {
			b.BytesPerOp = bytes
		}
		if !seen || allocs < b.AllocsPerOp {
			b.AllocsPerOp = allocs
		}
		b.Samples++
		out[name] = b
	}
	return out, sc.Err()
}

// diff returns the failure list comparing got against base.
func diff(base, got map[string]Bench, tolerance, allocSlack float64) []string {
	var fails []string
	for _, name := range keys(base) {
		b := base[name]
		g, ok := got[name]
		if !ok {
			fails = append(fails, fmt.Sprintf("%s: missing from this run", name))
			continue
		}
		if b.NsPerOp > 0 && g.NsPerOp > b.NsPerOp*(1+tolerance) {
			fails = append(fails, fmt.Sprintf("%s: ns/op %.0f exceeds baseline %.0f by %.1f%% (tolerance %.0f%%)",
				name, g.NsPerOp, b.NsPerOp, 100*(g.NsPerOp/b.NsPerOp-1), 100*tolerance))
		}
		if g.AllocsPerOp > b.AllocsPerOp+allocSlack {
			fails = append(fails, fmt.Sprintf("%s: allocs/op %.0f exceeds baseline %.0f (slack %.0f)",
				name, g.AllocsPerOp, b.AllocsPerOp, allocSlack))
		}
	}
	return fails
}

// report prints the side-by-side table.
func report(base, got map[string]Bench) {
	for _, name := range keys(base) {
		b := base[name]
		g, ok := got[name]
		if !ok {
			continue
		}
		delta := 0.0
		if b.NsPerOp > 0 {
			delta = 100 * (g.NsPerOp/b.NsPerOp - 1)
		}
		fmt.Printf("  %-50s ns/op %12.0f -> %12.0f (%+.1f%%)  allocs/op %8.0f -> %8.0f\n",
			name, b.NsPerOp, g.NsPerOp, delta, b.AllocsPerOp, g.AllocsPerOp)
	}
}

func keys(m map[string]Bench) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
