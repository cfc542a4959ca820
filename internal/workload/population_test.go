package workload

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func TestPopulationShardDeterminism(t *testing.T) {
	spec := PopulationSpec{
		Flows:    1000,
		Arrivals: PoissonArrivals{Rate: 200},
		Seed:     42,
	}
	a := spec.Shard(2, 4)
	b := spec.Shard(2, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (spec, shard) must regenerate identical flows")
	}
	// Generating another shard first must not disturb shard 2: streams
	// are independent, not a shared cursor.
	_ = spec.Shard(0, 4)
	c := spec.Shard(2, 4)
	if !reflect.DeepEqual(a, c) {
		t.Fatal("shard generation order leaked into shard contents")
	}
}

func TestPopulationShardsDiffer(t *testing.T) {
	spec := PopulationSpec{Flows: 400, Seed: 7}
	a := spec.Shard(0, 4)
	b := spec.Shard(1, 4)
	if reflect.DeepEqual(a, b) {
		t.Fatal("distinct shards produced identical populations")
	}
	s2 := PopulationSpec{Flows: 400, Seed: 8}
	if reflect.DeepEqual(a, s2.Shard(0, 4)) {
		t.Fatal("different seeds produced identical shard 0")
	}
}

func TestPopulationShardCounts(t *testing.T) {
	spec := PopulationSpec{Flows: 10007, Seed: 1}
	for _, nshards := range []int{1, 3, 4, 8} {
		total := 0
		for s := 0; s < nshards; s++ {
			n := spec.ShardFlows(s, nshards)
			if got := len(spec.Shard(s, nshards)); got != n {
				t.Fatalf("shard %d/%d: ShardFlows says %d, generated %d", s, nshards, n, got)
			}
			total += n
		}
		if total != spec.Flows {
			t.Errorf("nshards=%d: shard counts sum to %d, want %d", nshards, total, spec.Flows)
		}
	}
}

func TestPopulationMixProportions(t *testing.T) {
	spec := PopulationSpec{Flows: 20000, Seed: 3}
	counts := ClassCount(spec.Shard(0, 1))
	n := float64(spec.Flows)
	// DefaultMix: web 0.70, rpc 0.20, video 0.10 — allow ±3 points.
	for _, tc := range []struct {
		class Class
		want  float64
	}{{Web, 0.70}, {RPC, 0.20}, {Video, 0.10}} {
		got := float64(counts[tc.class]) / n
		if got < tc.want-0.03 || got > tc.want+0.03 {
			t.Errorf("%s share = %.3f, want ≈%.2f", tc.class, got, tc.want)
		}
	}
}

func TestPopulationArrivalsMonotone(t *testing.T) {
	spec := PopulationSpec{
		Flows:    500,
		Arrivals: LognormalArrivals{Mu: -5, Sigma: 1.5},
		Seed:     11,
		Start:    time.Second,
	}
	flows := spec.Shard(0, 2)
	prev := time.Duration(0)
	for _, f := range flows {
		if f.Start < time.Second {
			t.Fatalf("flow %d starts at %v, before the %v offset", f.ID, f.Start, time.Second)
		}
		if f.Start < prev {
			t.Fatalf("arrivals not monotone: flow %d at %v after %v", f.ID, f.Start, prev)
		}
		prev = f.Start
		if f.Size <= 0 {
			t.Fatalf("flow %d has non-positive size %d", f.ID, f.Size)
		}
	}
	if h := Horizon(flows, time.Minute); h != prev+time.Minute {
		t.Errorf("Horizon = %v, want %v", h, prev+time.Minute)
	}
}

func TestLognormalArrivalsClamp(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := LognormalArrivals{Mu: 0, Sigma: 4} // wild tail, median 1s
	for i := 0; i < 10000; i++ {
		gap := l.NextGap(rng)
		if gap < 0 || gap > 10*time.Second {
			t.Fatalf("gap %v escaped the default clamp", gap)
		}
	}
}
