package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMeanStdDev(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !almost(Mean(xs), 5) {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if !almost(StdDev(xs), 2) {
		t.Errorf("StdDev = %v, want 2", StdDev(xs))
	}
	if StdDev([]float64{1}) != 0 {
		t.Error("StdDev of singleton should be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if !almost(Percentile(xs, 0), 1) || !almost(Percentile(xs, 100), 5) {
		t.Error("extremes wrong")
	}
	if !almost(Percentile(xs, 50), 3) {
		t.Errorf("P50 = %v", Percentile(xs, 50))
	}
	if !almost(Percentile(xs, 25), 2) {
		t.Errorf("P25 = %v", Percentile(xs, 25))
	}
	// Input must not be mutated.
	ys := []float64{3, 1, 2}
	Percentile(ys, 50)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestJainIndex(t *testing.T) {
	if !almost(JainIndex([]float64{10, 10, 10, 10}), 1) {
		t.Error("equal shares must give F=1")
	}
	// One flow hogging everything among n: F = 1/n.
	if !almost(JainIndex([]float64{100, 0, 0, 0}), 0.25) {
		t.Errorf("F = %v, want 0.25", JainIndex([]float64{100, 0, 0, 0}))
	}
	if JainIndex(nil) != 0 {
		t.Error("empty input should give 0")
	}
}

// Property: Jain's index is scale-invariant and bounded in [1/n, 1].
func TestJainIndexProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(10) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()*100 + 0.001
		}
		fidx := JainIndex(xs)
		if fidx < 1/float64(n)-1e-9 || fidx > 1+1e-9 {
			return false
		}
		scaled := make([]float64, n)
		for i := range xs {
			scaled[i] = xs[i] * 42
		}
		return almost(fidx, JainIndex(scaled))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || !almost(s.Mean, 3) || !almost(s.Min, 1) || !almost(s.Max, 5) || !almost(s.P50, 3) {
		t.Errorf("Summary = %+v", s)
	}
	if Summarize(nil).N != 0 {
		t.Error("empty summary should be zero")
	}
}

func TestBinnedCounter(t *testing.T) {
	b := NewBinnedCounter(time.Second)
	b.Add(100*time.Millisecond, 10)
	b.Add(900*time.Millisecond, 5)
	b.Add(2500*time.Millisecond, 7)
	bins := b.Bins()
	if len(bins) != 3 {
		t.Fatalf("bins = %v", bins)
	}
	if bins[0] != 15 || bins[1] != 0 || bins[2] != 7 {
		t.Errorf("bins = %v", bins)
	}
	rates := b.Rate()
	if rates[0] != 15 {
		t.Errorf("rate[0] = %v", rates[0])
	}
}

// Regression: Add used to compute a negative bin index for t < 0 and
// panic indexing vals[-1]. Pre-start timestamps now clamp into bin 0.
func TestBinnedCounterNegativeTime(t *testing.T) {
	b := NewBinnedCounter(time.Second)
	b.Add(-500*time.Millisecond, 3)
	b.Add(-10*time.Second, 4)
	b.Add(100*time.Millisecond, 1)
	bins := b.Bins()
	if len(bins) != 1 || bins[0] != 8 {
		t.Errorf("bins = %v, want [8]", bins)
	}
}

// Golden values pin Summarize's exact outputs: the single-sort rewrite
// must reproduce what the sort-per-percentile version computed,
// including the P95 linear interpolation and min/max off the sorted
// slice.
func TestSummarizeGolden(t *testing.T) {
	xs := []float64{9, 1, 4, 4, 2, 8, 5, 7, 3, 6} // 1..9 with 4 doubled
	s := Summarize(xs)
	want := Summary{
		N:      10,
		Mean:   4.9,
		StdDev: math.Sqrt(6.09),
		P50:    4.5,  // rank 4.5 between sorted[4]=4 and sorted[5]=5
		P95:    8.55, // rank 8.55 between sorted[8]=8 and sorted[9]=9
		Min:    1,
		Max:    9,
	}
	if s.N != want.N || !almost(s.Mean, want.Mean) || !almost(s.StdDev, want.StdDev) ||
		!almost(s.P50, want.P50) || !almost(s.P95, want.P95) ||
		!almost(s.Min, want.Min) || !almost(s.Max, want.Max) {
		t.Errorf("Summarize = %+v, want %+v", s, want)
	}
	// Input order must survive (the sort works on a copy).
	if xs[0] != 9 || xs[len(xs)-1] != 6 {
		t.Error("Summarize mutated its input")
	}
}

// Property: Summarize's percentiles agree with the standalone
// Percentile on arbitrary inputs — the shared-sorted-slice path is an
// optimization, not a behavior change.
func TestSummarizeMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		xs := make([]float64, rng.Intn(20)+1)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		s := Summarize(xs)
		if !almost(s.P50, Percentile(xs, 50)) || !almost(s.P95, Percentile(xs, 95)) {
			t.Fatalf("trial %d: Summarize %+v disagrees with Percentile (P50=%v P95=%v) on %v",
				trial, s, Percentile(xs, 50), Percentile(xs, 95), xs)
		}
	}
}

func TestJainOverTime(t *testing.T) {
	a := NewBinnedCounter(time.Second)
	c := NewBinnedCounter(time.Second)
	a.Add(0, 10)
	c.Add(0, 10)
	a.Add(time.Second, 20)
	c.Add(time.Second, 0) // flow b idle in bin 1
	series := JainOverTime([]*BinnedCounter{a, c}, true)
	if !almost(series[0], 1) {
		t.Errorf("bin0 F = %v, want 1", series[0])
	}
	if !almost(series[1], 0.5) {
		t.Errorf("bin1 F = %v, want 0.5 (one starved of two)", series[1])
	}
	active := JainOverTime([]*BinnedCounter{a, c}, false)
	if !almost(active[1], 1) {
		t.Errorf("active-only bin1 F = %v, want 1", active[1])
	}
}
