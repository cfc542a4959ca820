package workload

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestLognormalBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := Lognormal{Mu: math.Log(30 << 10), Sigma: 1.3, Min: 2 << 10, Max: 2 << 20}
	for i := 0; i < 10000; i++ {
		v := d.Sample(rng)
		if v < 2<<10 || v > 2<<20 {
			t.Fatalf("sample %d outside bounds", v)
		}
	}
}

func TestLognormalMedian(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := Lognormal{Mu: math.Log(30 << 10), Sigma: 1.3}
	var xs []float64
	for i := 0; i < 20000; i++ {
		xs = append(xs, float64(d.Sample(rng)))
	}
	sort.Float64s(xs)
	median := xs[len(xs)/2]
	// Median of a lognormal is e^mu = 30 KB.
	if median < 25<<10 || median > 36<<10 {
		t.Errorf("median = %.0f, want ≈30KB", median)
	}
}

func TestBoundedParetoBoundsAndTail(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := BoundedPareto{Alpha: 1.2, Min: 1 << 20, Max: 50 << 20}
	big := 0
	n := 20000
	for i := 0; i < n; i++ {
		v := d.Sample(rng)
		if v < 1<<20 || v > 50<<20 {
			t.Fatalf("sample %d outside bounds", v)
		}
		if v > 10<<20 {
			big++
		}
	}
	// The tail must carry real mass but stay a minority.
	frac := float64(big) / float64(n)
	if frac < 0.02 || frac > 0.35 {
		t.Errorf("P(>10MB) = %.3f; tail mis-shaped", frac)
	}
}

func TestWebMixShape(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := WebMix()
	small, total := 0, 50000
	var bytesSmall, bytesAll float64
	for i := 0; i < total; i++ {
		v := d.Sample(rng)
		bytesAll += float64(v)
		if v <= 1<<20 {
			small++
			bytesSmall += float64(v)
		}
	}
	// Mice dominate counts...
	if frac := float64(small) / float64(total); frac < 0.7 {
		t.Errorf("small-flow fraction %.2f, want ≥0.7", frac)
	}
	// ...but elephants dominate bytes (the paper's motivating regime).
	if byteFrac := bytesSmall / bytesAll; byteFrac > 0.5 {
		t.Errorf("small flows carry %.2f of bytes; elephants should dominate", byteFrac)
	}
}

func TestMixtureValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched mixture should panic")
		}
	}()
	NewMixture([]SizeDist{Lognormal{}}, []float64{1, 2})
}

func TestArrivalsMeanRate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := PoissonArrivals{Rate: 50}
	sched := make([]time.Duration, 5000)
	var at time.Duration
	for i := range sched {
		at += a.NextGap(rng)
		sched[i] = at
	}
	if !sort.SliceIsSorted(sched, func(i, j int) bool { return sched[i] < sched[j] }) {
		t.Fatal("arrivals not monotonic")
	}
	span := sched[len(sched)-1].Seconds()
	rate := float64(len(sched)) / span
	if rate < 45 || rate > 55 {
		t.Errorf("empirical rate %.1f, want ≈50", rate)
	}
}

// Property: samples are always within declared bounds for any seed.
func TestDistBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := WebMix()
		for i := 0; i < 500; i++ {
			v := d.Sample(rng)
			if v < 2<<10 || v > 50<<20 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestArrivalsNextPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := PoissonArrivals{Rate: 10}
	for i := 0; i < 1000; i++ {
		if a.NextGap(rng) <= 0 {
			t.Fatal("non-positive inter-arrival")
		}
	}
}
