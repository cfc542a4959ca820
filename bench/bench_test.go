package main

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"suss/internal/experiments"
	"suss/internal/runner"
	"suss/internal/scenarios"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// The quartiles must be the ones Python's statistics.quantiles(v, n=4)
// gives, because the acceptance check of the benchmark is stated in
// them. The expected values below were computed with it.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	cases := []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 3.5, 5.25},
		{[]float64{10, 20, 30, 40}, 12.5, 25, 37.5},
		{[]float64{7, 7, 7}, 7, 7, 7},
		{[]float64{2, 4, 8, 16, 32}, 3, 8, 24},
	}
	for _, c := range cases {
		if q1, q2, q3 := quantile(c.in, 0.25), median(c.in), quantile(c.in, 0.75); !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{5, 1, 4, 2, 3})
	if s.N != 5 || s.Min != 1 || s.Median != 3 || s.Q1 != 1.5 || s.Q3 != 4.5 {
		t.Errorf("summarize = %+v", s)
	}
}

func TestSpanSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{Name: "pass", StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "a", StartNs: 10, EndNs: 40, Parent: 0},
		{Name: "b", StartNs: 30, EndNs: 60, Parent: 0},  // overlaps a by 10
		{Name: "c", StartNs: 70, EndNs: 120, Parent: 0}, // runs past its parent
		{Name: "a1", StartNs: 15, EndNs: 25, Parent: 1},
		{Name: "a2", StartNs: 20, EndNs: 30, Parent: 1}, // overlaps a1 by 5
	}
	want := []int64{
		100 - (60 - 10) - (100 - 70), // the children cover [10,60] and [70,100]
		30 - (30 - 15),               // a1 and a2 cover [15,30]
		30,
		50,
		10,
		10,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	shares := selfShares(spans)
	if !near(shares["pass"], 0.20) || !near(shares["a"], 0.15) || !near(shares["c"], 0.50) {
		t.Errorf("selfShares = %v", shares)
	}
}

func TestSpanRecorderNestsAndRejectsDisorder(t *testing.T) {
	r := newSpanRecorder("w")
	r.pass = 3
	root := r.begin(passRoot)
	r.in("inner", func() { r.in("innermost", func() {}) })
	r.end(root)
	if len(r.spans) != 3 || r.spans[1].Parent != 0 || r.spans[2].Parent != 1 || r.spans[2].Pass != 3 || r.spans[0].Workload != "w" {
		t.Fatalf("spans = %+v", r.spans)
	}
	for _, s := range r.spans {
		if s.EndNs < s.StartNs {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	a := r.begin("a")
	r.begin("b")
	defer func() {
		if recover() == nil {
			t.Error("ending a span before its child did not panic")
		}
	}()
	r.end(a)
}

// The traced driver repeats the calls runner.Download makes; if the
// two ever diverge, the spans describe a program nobody runs.
func TestTracedDriversMatchRunner(t *testing.T) {
	jobs := experiments.Fig11Jobs(scenarios.GoogleTokyo, []int64{256 << 10}, 1, 1)
	rec := newSpanRecorder("test")
	var count opCounts
	for _, k := range []int{0, 4, 11} { // bbr on 5G, cubic+suss on wired, cubic on 4G
		j := jobs[k]
		got := tracedDownload(j, rec, &count)
		if want := runner.Download(j); !reflect.DeepEqual(got, want) {
			t.Errorf("%s %s: traced %+v, runner %+v", j.Scenario.Name(), j.Algo, got, want)
		}
	}
	if count.dataSegs == 0 || count.acks == 0 || count.forwards == 0 || count.poolGets == 0 || count.runNs == 0 {
		t.Errorf("op counts not filled: %+v", count)
	}

	fc := experiments.DefaultFleetConfig(1)
	fc.Flows, fc.Shards = 300, 2
	for _, j := range experiments.FleetJobs(fc) {
		j.Shard = 1
		got := tracedFleetShard(j, rec, &count)
		if want := runner.RunFleetShard(j); !reflect.DeepEqual(got, want) {
			t.Errorf("fleet %s: traced shard differs from runner.RunFleetShard", j.Algo)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// BENCHMARK.json is rendered from the tables the program measures by;
// this keeps the committed file and those tables in step and inside
// the limits the file format sets.
func TestManifestMatchesCommittedFile(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if want := manifestJSON(); !bytes.Equal(bytes.TrimSpace(got), want) {
		t.Errorf("../BENCHMARK.json is stale: regenerate it with `bash bench/run.sh -manifest > BENCHMARK.json`")
	}
	seen := make(map[string]bool)
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the format's limits", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	ws := workloads()
	if len(ws) < 2 || len(ws) > 8 {
		t.Errorf("%d workloads", len(ws))
	}
	for _, w := range ws {
		use(w.name)
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		use(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("end-to-end metrics lack setup_s in seconds, lower is better")
	}
	layers := perLayer()
	if len(layers) > 128 {
		t.Errorf("%d per-layer metrics", len(layers))
	}
	for _, m := range append(layers, endToEnd...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range layers {
		use(m.Name)
	}
}

func smokeOpts(t *testing.T) runOpts {
	return defaultOpts(t.TempDir()).smoke()
}

// One cold pass of every workload: every check and guard passes and
// every end-to-end metric comes out positive.
func TestSmokeRunsEveryWorkload(t *testing.T) {
	t0 := time.Now()
	o := smokeOpts(t)
	for _, w := range workloads() {
		r, err := runUntraced(w, o)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(r.errs) > 0 || r.failed > 0 || r.attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d, errs %v", w.name, r.attempted, r.failed, r.errs)
		}
		for _, m := range endToEnd {
			if v := r.value(m.Name); !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", w.name, m.Name, v)
			}
		}
	}
	if d := time.Since(t0); d > 30*time.Second {
		t.Errorf("smoke took %v", d)
	}
}

// A failed guard must fail the run: a workload that quietly stopped
// stressing its layer is worse than one that stopped running.
func TestGuardFailureFailsEveryOpOfThePass(t *testing.T) {
	w, _ := findWorkload("bulk_steady")
	broken := w
	broken.setup = func(seed int64, o runOpts) (instance, error) {
		inst, err := w.setup(seed, o)
		in := inst.(*jobsInstance)
		in.jobs = in.jobs[:1]
		in.guard = func(passStats) []string { return []string{"guard tripped"} }
		return in, err
	}
	r, err := runUntraced(broken, smokeOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != r.attempted || len(r.errs) == 0 {
		t.Errorf("attempted %d, failed %d, errs %v", r.attempted, r.failed, r.errs)
	}
}

func TestLayerPricesCoverEveryName(t *testing.T) {
	vals, n := priceLayers(smokeOpts(t))
	for _, m := range layerDefs {
		v, ok := vals[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) || n[m.Name] == 0 {
			t.Errorf("%s: value %v, n %d, present %v", m.Name, v, n[m.Name], ok)
		}
	}
	if len(vals) != len(layerDefs) {
		t.Errorf("%d prices for %d names", len(vals), len(layerDefs))
	}
	for _, name := range []string{"netsim.link.forward_allocs", "wire.codec_allocs"} {
		if vals[name] != 0 {
			t.Errorf("%s = %v: the hot path allocates", name, vals[name])
		}
	}
}
