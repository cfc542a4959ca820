package netem

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"suss/internal/netsim"
	"suss/internal/obs"
)

func TestStep(t *testing.T) {
	r := Step(1e8, 2.5e7, time.Second)
	if got := r(999 * time.Millisecond); got != 1e8 {
		t.Errorf("before step: %v", got)
	}
	if got := r(time.Second); got != 2.5e7 {
		t.Errorf("at step: %v", got)
	}
}

func TestVariableRateBoundsAndMean(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	v := NewVariableRate(1e8, 0.3, rng)
	var sum float64
	n := 0
	for now := time.Duration(0); now < 10*time.Minute; now += 50 * time.Millisecond {
		r := v.Rate(now)
		if r < v.Floor || r > v.Ceil {
			t.Fatalf("rate %v outside [%v,%v]", r, v.Floor, v.Ceil)
		}
		sum += r
		n++
	}
	mean := sum / float64(n)
	if math.Abs(mean-1e8)/1e8 > 0.15 {
		t.Errorf("long-run mean %.3g deviates >15%% from 1e8", mean)
	}
}

func TestVariableRateDeterministic(t *testing.T) {
	run := func() []float64 {
		v := NewVariableRate(5e7, 0.25, rand.New(rand.NewSource(42)))
		var out []float64
		for now := time.Duration(0); now < 5*time.Second; now += 100 * time.Millisecond {
			out = append(out, v.Rate(now))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at sample %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestVariableRateMonotonicQueriesOnly(t *testing.T) {
	// The model advances lazily; repeated queries at the same time must
	// return the same value.
	v := NewVariableRate(1e8, 0.3, rand.New(rand.NewSource(1)))
	a := v.Rate(time.Second)
	b := v.Rate(time.Second)
	if a != b {
		t.Fatalf("same-time queries differ: %v vs %v", a, b)
	}
}

func TestBernoulliRate(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := 0.1
	l := Bernoulli(p, rng)
	drops := 0
	n := 100000
	for i := 0; i < n; i++ {
		if v := l.Judge(0, nil); v.Drop {
			if v.Cause != obs.DropErasure {
				t.Fatalf("drop cause %v, want wire erasure", v.Cause)
			}
			drops++
		} else if v != (netsim.ImpairVerdict{}) {
			t.Fatalf("a passed packet got verdict %+v, want the zero verdict", v)
		}
	}
	got := float64(drops) / float64(n)
	if math.Abs(got-p) > 0.01 {
		t.Errorf("loss rate %v, want ≈%v", got, p)
	}
	zero := Bernoulli(0, rng)
	for i := 0; i < 1000; i++ {
		if zero.Judge(0, nil).Drop {
			t.Fatal("zero loss dropped a packet")
		}
	}
}

func TestGilbertElliottBursts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := NewGilbertElliott(0.01, 0.2, 0, 0.5, rng)
	drops, runs, inRun := 0, 0, false
	n := 200000
	for i := 0; i < n; i++ {
		if g.Judge(0, nil).Drop {
			drops++
			if !inRun {
				runs++
				inRun = true
			}
		} else {
			inRun = false
		}
	}
	if drops == 0 {
		t.Fatal("GE model never dropped")
	}
	// Bursty: average run length must exceed 1 (independent loss at the
	// same rate would give run length ≈ 1/(1-p) ≈ 1.03 for p≈0.024).
	avgRun := float64(drops) / float64(runs)
	if avgRun < 1.2 {
		t.Errorf("average loss-run length %.2f, expected bursty (>1.2)", avgRun)
	}
}

func TestDefaultProfiles(t *testing.T) {
	for _, lt := range []LinkType{Wired, WiFi, LTE4G, NR5G} {
		p := DefaultProfile(lt, 1e8)
		if p.MeanRate != 1e8 {
			t.Errorf("%v: mean rate %v", lt, p.MeanRate)
		}
		if p.BufferBDPs <= 0 {
			t.Errorf("%v: non-positive buffer", lt)
		}
	}
	if DefaultProfile(Wired, 1e8).RelStdDev != 0 {
		t.Error("wired should have no rate variation")
	}
	if DefaultProfile(LTE4G, 1e8).RelStdDev <= DefaultProfile(NR5G, 1e8).RelStdDev {
		t.Error("4G should vary more than 5G (paper App. B)")
	}
}

func TestProfileApply(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var m Models
	p := DefaultProfile(LTE4G, 5e7)
	cfg := p.Apply(&m, "last", 5*time.Millisecond, 200*time.Millisecond, rng)
	if cfg.RateModel == nil {
		t.Fatal("4G profile must install a rate model")
	}
	// Loss before jitter: a packet draws its loss first, and a dropped
	// one draws no jitter.
	if len(cfg.Impair) != 2 || cfg.Impair[0] != &m.loss || cfg.Impair[1] != &m.jitter {
		t.Fatalf("4G pipeline %v, want [loss jitter]", cfg.Impair)
	}
	// Buffer = 3 BDP of 50 Mbps × 200 ms = 3 × 1.25 MB.
	wantBuf := int(3 * 5e7 / 8 * 0.2)
	if cfg.QueueBytes != wantBuf {
		t.Errorf("buffer = %d, want %d", cfg.QueueBytes, wantBuf)
	}

	w := DefaultProfile(Wired, 5e7).Apply(&m, "wired", time.Millisecond, 100*time.Millisecond, rng)
	if w.RateModel != nil || w.Impair != nil {
		t.Error("wired profile should have no impairments")
	}
	if w.Rate != 5e7 {
		t.Errorf("wired rate = %v", w.Rate)
	}
}

// TestApplyReusedModels: a profile applied to models that last ran
// under another profile, with their RNG reseeded, draws the rate,
// jitter and loss sequence a fresh Apply with a new RNG of that seed
// draws, and installs the same models (none for wired). The last
// profile's heavy loss makes a stale loss probability show in drops.
func TestApplyReusedModels(t *testing.T) {
	var profiles []Profile
	for _, lt := range []LinkType{Wired, WiFi, LTE4G, NR5G} {
		profiles = append(profiles, DefaultProfile(lt, 1e8))
	}
	profiles = append(profiles, Profile{Type: WiFi, MeanRate: 5e7, RelStdDev: 0.5, JitterMax: 5 * time.Millisecond, Loss: 0.05, BufferBDPs: 1})
	const seed, steps = 17, 20000
	for i, prev := range profiles {
		for j, p := range profiles {
			rng := rand.New(rand.NewSource(99))
			var reused Models
			run(prev.Apply(&reused, "x", time.Millisecond, 50*time.Millisecond, rng), 3000)
			rng.Seed(seed)
			got := run(p.Apply(&reused, "x", time.Millisecond, 50*time.Millisecond, rng), steps)
			want := run(p.Apply(new(Models), "x", time.Millisecond, 50*time.Millisecond, rand.New(rand.NewSource(seed))), steps)
			if got != want {
				t.Errorf("profile %d after %d: reused models drew %+v, fresh %+v", j, i, got, want)
			}
		}
	}
}

// draws is what run saw a link config's models do: whether the rate
// model is set, how many stages the pipeline has, and a digest of
// their outputs.
type draws struct {
	rate   bool
	stages int
	sum    float64
	drops  int
}

// run steps cfg's models 1 ms apart, steps times, as a link would.
func run(cfg netsim.LinkConfig, steps int) draws {
	d := draws{rate: cfg.RateModel != nil, stages: len(cfg.Impair)}
	for i := range steps {
		now := time.Duration(i) * time.Millisecond
		if d.rate {
			d.sum += cfg.RateModel(now)
		}
		if v := cfg.Impair.Judge(now, nil); v.Drop {
			d.drops++
		} else {
			d.sum += float64(v.ExtraDelay)
		}
	}
	return d
}

// TestApplyReuseAllocs: re-applying a profile to warm models (and
// reseeding their RNG) allocates nothing.
func TestApplyReuseAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var m Models
	p := DefaultProfile(LTE4G, 1.5e8)
	p.Apply(&m, "lasthop", 5*time.Millisecond, 100*time.Millisecond, rng)
	allocs := testing.AllocsPerRun(100, func() {
		rng.Seed(1)
		p.Apply(&m, "lasthop", 5*time.Millisecond, 100*time.Millisecond, rng)
	})
	if allocs != 0 {
		t.Errorf("re-applying a profile to warm models made %.1f allocs, want 0", allocs)
	}
}

func TestLinkTypeString(t *testing.T) {
	want := map[LinkType]string{Wired: "wired", WiFi: "wifi", LTE4G: "4g", NR5G: "5g"}
	for lt, s := range want {
		if lt.String() != s {
			t.Errorf("%d.String() = %q, want %q", lt, lt.String(), s)
		}
	}
}

// Property: VariableRate stays within bounds for any seed/params.
func TestVariableRateBoundsProperty(t *testing.T) {
	f := func(seed int64, rel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		relStd := float64(rel%60)/100 + 0.05
		v := NewVariableRate(1e8, relStd, rng)
		for now := time.Duration(0); now < time.Minute; now += 100 * time.Millisecond {
			r := v.Rate(now)
			if r < v.Floor || r > v.Ceil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
