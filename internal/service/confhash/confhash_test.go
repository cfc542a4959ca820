package confhash

import (
	"strings"
	"testing"
	"time"

	"suss/internal/core"
	"suss/internal/experiments"
	"suss/internal/netem"
	"suss/internal/runner"
	"suss/internal/scenarios"
	"suss/internal/tcp"
	"suss/internal/workload"
)

func mustJobKey(t *testing.T, j runner.Job) string {
	t.Helper()
	k, err := JobKey(j)
	if err != nil {
		t.Fatalf("JobKey(%+v): %v", j, err)
	}
	return k
}

func mustFleetKey(t *testing.T, j runner.FleetJob) string {
	t.Helper()
	k, err := FleetKey(j)
	if err != nil {
		t.Fatalf("FleetKey: %v", err)
	}
	return k
}

func baseJob() runner.Job {
	return runner.Job{
		Scenario: scenarios.New(scenarios.GoogleTokyo, netem.LTE4G, 1),
		Algo:     runner.Suss,
		Size:     1 << 20,
	}
}

// The cache-correctness heart: a config relying on defaults and one
// spelling every default out must be the same key, field by field.
func TestJobKeyDefaultedEqualsExplicit(t *testing.T) {
	short := baseJob()
	long := baseJob()
	long.Backend = "sim"
	long.Horizon = runner.DefaultHorizon
	cfg := tcp.DefaultConfig()
	long.Transport = &cfg
	opt := core.DefaultOptions()
	long.SussOpt = &opt

	if got, want := mustJobKey(t, long), mustJobKey(t, short); got != want {
		t.Errorf("explicit defaults hash differently:\n defaulted %s\n explicit  %s", want, got)
	}
}

// Execution knobs the determinism contract covers must not key the
// cache: the watchdog produces identical records.
func TestJobKeyIgnoresExecutionKnobs(t *testing.T) {
	j := baseJob()

	// WallLimit folds into Observe: a guarded job is an observed job.
	j.WallLimit = time.Minute
	withWall := mustJobKey(t, j)
	j.WallLimit = 0
	j.Observe = true
	if withWall != mustJobKey(t, j) {
		t.Error("WallLimit>0 must hash like Observe=true (the runner attaches the recorder for both)")
	}
}

// A retired-field value can never share a key with a runnable job: the
// runner refuses Domains > 1, so such a config must not alias a cached
// result computed for the config the runner does accept.
func TestRetiredDomainsNeverSharesKey(t *testing.T) {
	j := baseJob()
	j.Domains = 2
	if mustJobKey(t, j) == mustJobKey(t, baseJob()) {
		t.Error("Job{Domains: 2} shares a key with the runnable job")
	}
	fj := baseFleetJob()
	fj.Domains = 2
	if mustFleetKey(t, fj) == mustFleetKey(t, baseFleetJob()) {
		t.Error("FleetJob{Domains: 2} shares a key with the runnable job")
	}
}

// The same for the retired Backend field: the runner refuses every
// value but ""/"sim", so no other value may produce a key at all, let
// alone the runnable job's.
func TestRetiredBackendNeverSharesKey(t *testing.T) {
	base := mustJobKey(t, baseJob())
	for _, be := range []string{"pipe", "udp", "carrier-pigeon"} {
		j := baseJob()
		j.Backend = be
		if k, err := JobKey(j); err == nil {
			t.Errorf("Job{Backend: %q} got key %s (runnable job's: %v); the runner refuses it", be, k, k == base)
		}
	}
}

func TestJobKeySemanticFieldsChangeKey(t *testing.T) {
	base := mustJobKey(t, baseJob())
	mutate := []struct {
		name string
		fn   func(*runner.Job)
	}{
		{"algo", func(j *runner.Job) { j.Algo = runner.Cubic }},
		{"size", func(j *runner.Job) { j.Size = 2 << 20 }},
		{"iter", func(j *runner.Job) { j.Iter = 1 }},
		{"seed", func(j *runner.Job) { j.Scenario.Seed++ }},
		{"rtt", func(j *runner.Job) { j.Scenario.RTT += time.Millisecond }},
		{"horizon", func(j *runner.Job) { j.Horizon = time.Minute }},
		{"observe", func(j *runner.Job) { j.Observe = true }},
		{"kmax", func(j *runner.Job) {
			opt := core.DefaultOptions()
			opt.Kmax = 3
			j.SussOpt = &opt
		}},
		{"transport", func(j *runner.Job) {
			cfg := tcp.DefaultConfig()
			cfg.FRTO = true
			j.Transport = &cfg
		}},
	}
	for _, m := range mutate {
		j := baseJob()
		m.fn(&j)
		if mustJobKey(t, j) == base {
			t.Errorf("%s: semantic change did not change the key", m.name)
		}
	}
}

// SussOpt only feeds the controller when Algo is Suss; for every other
// algorithm it must not key the cache.
func TestJobKeySussOptIgnoredForNonSuss(t *testing.T) {
	j := baseJob()
	j.Algo = runner.BBR
	base := mustJobKey(t, j)
	opt := core.DefaultOptions()
	opt.Kmax = 4
	j.SussOpt = &opt
	if mustJobKey(t, j) != base {
		t.Error("SussOpt keyed a non-Suss job the runner ignores it for")
	}
}

func TestJobKeyRejectsUncacheable(t *testing.T) {
	j := baseJob()
	j.Impair = func(runner.ChaosEnv) {}
	if _, err := JobKey(j); err == nil {
		t.Error("Impair hook accepted: arbitrary code is not content-addressable")
	}
	j = baseJob()
	j.Backend = "pipe"
	if _, err := JobKey(j); err == nil || !strings.Contains(err.Error(), "pipe") {
		t.Errorf("pipe backend accepted (err=%v): wall-clock results must not be cached", err)
	}
}

func baseFleetJob() runner.FleetJob {
	fc := experiments.DefaultFleetConfig(1)
	jobs := experiments.FleetJobs(fc)
	return jobs[0]
}

func TestFleetKeyDefaultedEqualsExplicit(t *testing.T) {
	short := baseFleetJob()
	short.Pop.Mix = nil // rely on workload.Shard's default
	short.Pop.Arrivals = nil
	short.Horizon = 0

	long := short
	long.Pop.Mix = workload.DefaultMix()
	long.Pop.Arrivals = workload.PoissonArrivals{Rate: 100}
	long.Horizon = runner.DefaultHorizon
	cfg := tcp.DefaultConfig()
	long.Transport = &cfg

	if got, want := mustFleetKey(t, long), mustFleetKey(t, short); got != want {
		t.Errorf("explicit fleet defaults hash differently:\n defaulted %s\n explicit  %s", want, got)
	}
}

func TestFleetKeySemanticFieldsChangeKey(t *testing.T) {
	base := mustFleetKey(t, baseFleetJob())
	mutate := []struct {
		name string
		fn   func(*runner.FleetJob)
	}{
		{"shard", func(j *runner.FleetJob) { j.Shard = 1 }},
		{"shards", func(j *runner.FleetJob) { j.Shards++ }},
		{"algo", func(j *runner.FleetJob) { j.Algo = runner.Suss }},
		{"flows", func(j *runner.FleetJob) { j.Pop.Flows++ }},
		{"seed", func(j *runner.FleetJob) { j.Pop.Seed++ }},
		{"rate", func(j *runner.FleetJob) { j.Pop.Arrivals = workload.PoissonArrivals{Rate: 42} }},
		{"tree", func(j *runner.FleetJob) { j.Fleet.HostsPerGroup++ }},
		{"mix", func(j *runner.FleetJob) { j.Pop.Mix = workload.DefaultMix() }}, // base uses SmokeMix
	}
	for _, m := range mutate {
		j := baseFleetJob()
		m.fn(&j)
		if mustFleetKey(t, j) == base {
			t.Errorf("%s: semantic change did not change the key", m.name)
		}
	}
}

// The arrival process's concrete type is part of the identity even when
// the rendered fields could collide.
func TestFleetKeyArrivalTypeTagged(t *testing.T) {
	j := baseFleetJob()
	j.Pop.Arrivals = workload.PoissonArrivals{Rate: 100}
	poisson := mustFleetKey(t, j)
	j.Pop.Arrivals = workload.LognormalArrivals{Mu: 100} // same leading float
	if mustFleetKey(t, j) == poisson {
		t.Error("different arrival process types collided")
	}
}

// Canonical must not depend on how a value was reached: pointer vs
// value, and map iteration order.
func TestCanonicalStability(t *testing.T) {
	type inner struct{ B, A int }
	v := inner{A: 1, B: 2}
	c1, err := Canonical(v)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Canonical(&v)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Errorf("pointer changed rendering: %q vs %q", c1, c2)
	}
	if c1 != "{A:1,B:2}" {
		t.Errorf("fields not sorted by name: %q", c1)
	}

	m := map[string]int{"z": 26, "a": 1, "m": 13}
	want := `{"a":1,"m":13,"z":26}`
	for i := 0; i < 20; i++ { // map order is randomized per iteration
		got, err := Canonical(m)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("map rendering unstable: %q", got)
		}
	}

	if _, err := Canonical(struct{ F func() }{F: func() {}}); err == nil {
		t.Error("non-nil func rendered canonically")
	}
}
