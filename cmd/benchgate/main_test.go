package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: suss
BenchmarkFig11FCTvsFlowSize-8   	       1	1200000000 ns/op	        22.50 small-flow-improvement-%	 5000000 B/op	   60000 allocs/op
BenchmarkFig11FCTvsFlowSize-8   	       1	1100000000 ns/op	        22.50 small-flow-improvement-%	 5100000 B/op	   59000 allocs/op
BenchmarkSchedulerChurn/levels=1-8         	 2000000	       550.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkSchedulerChurn/levels=1-8         	 2000000	       540.0 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	suss	2.5s
`

func TestParseBestOfN(t *testing.T) {
	got, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	fig := got["BenchmarkFig11FCTvsFlowSize"]
	if fig.Samples != 2 {
		t.Fatalf("samples = %d, want 2", fig.Samples)
	}
	if fig.NsPerOp != 1.1e9 {
		t.Errorf("ns/op = %v, want min 1.1e9", fig.NsPerOp)
	}
	if fig.AllocsPerOp != 59000 {
		t.Errorf("allocs/op = %v, want min 59000", fig.AllocsPerOp)
	}
	churn := got["BenchmarkSchedulerChurn/levels=1"]
	if churn.NsPerOp != 540 || churn.AllocsPerOp != 0 {
		t.Errorf("churn = %+v", churn)
	}
}

func TestStripProcs(t *testing.T) {
	cases := map[string]string{
		"BenchmarkX-8":           "BenchmarkX",
		"BenchmarkX-16":          "BenchmarkX",
		"BenchmarkX/workers=2-8": "BenchmarkX/workers=2",
		"BenchmarkNoSuffix":      "BenchmarkNoSuffix",
	}
	for in, want := range cases {
		if got := stripProcs(in); got != want {
			t.Errorf("stripProcs(%q) = %q, want %q", in, got, want)
		}
	}
	if got := stripProcs("BenchmarkX/sub-case"); got != "BenchmarkX/sub-case" {
		t.Errorf("non-numeric suffix must be kept, got %q", got)
	}
}

func TestDiffPassesWithinTolerance(t *testing.T) {
	base := map[string]Bench{"B": {NsPerOp: 1000, AllocsPerOp: 10}}
	got := map[string]Bench{"B": {NsPerOp: 1080, AllocsPerOp: 10}}
	if f := diff(base, got, 0.10, 0); len(f) != 0 {
		t.Fatalf("unexpected failures: %v", f)
	}
}

func TestDiffFailsOnNsRegression(t *testing.T) {
	base := map[string]Bench{"B": {NsPerOp: 1000, AllocsPerOp: 10}}
	got := map[string]Bench{"B": {NsPerOp: 1200, AllocsPerOp: 10}}
	f := diff(base, got, 0.10, 0)
	if len(f) != 1 || !strings.Contains(f[0], "ns/op") {
		t.Fatalf("want one ns/op failure, got %v", f)
	}
}

func TestDiffFailsOnAnyAllocRegression(t *testing.T) {
	base := map[string]Bench{"B": {NsPerOp: 1000, AllocsPerOp: 10}}
	got := map[string]Bench{"B": {NsPerOp: 900, AllocsPerOp: 11}}
	f := diff(base, got, 0.10, 0)
	if len(f) != 1 || !strings.Contains(f[0], "allocs/op") {
		t.Fatalf("want one allocs/op failure, got %v", f)
	}
}

func TestDiffAllocSlackAbsorbsNoise(t *testing.T) {
	base := map[string]Bench{"B": {NsPerOp: 1000, AllocsPerOp: 33754}}
	got := map[string]Bench{"B": {NsPerOp: 900, AllocsPerOp: 33760}}
	if f := diff(base, got, 0.10, 64); len(f) != 0 {
		t.Fatalf("slack 64 must absorb +6 allocs, got %v", f)
	}
	got["B"] = Bench{NsPerOp: 900, AllocsPerOp: 33900}
	if f := diff(base, got, 0.10, 64); len(f) != 1 || !strings.Contains(f[0], "allocs/op") {
		t.Fatalf("+146 allocs must still fail with slack 64, got %v", f)
	}
}

func TestDiffFailsOnMissingBenchmark(t *testing.T) {
	base := map[string]Bench{"B": {NsPerOp: 1000}}
	f := diff(base, map[string]Bench{}, 0.10, 0)
	if len(f) != 1 || !strings.Contains(f[0], "missing") {
		t.Fatalf("want one missing failure, got %v", f)
	}
}
