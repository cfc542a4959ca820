package runner

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"suss/internal/scenarios"
	"suss/internal/workload"
)

// testPop keeps fleet tests seconds-scale: mice-only sizes, brisk
// arrivals.
func testPop(flows int) workload.PopulationSpec {
	return workload.PopulationSpec{
		Flows:    flows,
		Arrivals: workload.PoissonArrivals{Rate: 400},
		Mix: []workload.ClassMix{
			{Class: workload.Web, Weight: 0.8, Sizes: workload.Lognormal{
				Mu: math.Log(20 << 10), Sigma: 1.0, Min: 2 << 10, Max: 256 << 10,
			}},
			{Class: workload.RPC, Weight: 0.2, Sizes: workload.Lognormal{
				Mu: math.Log(4 << 10), Sigma: 0.5, Min: 512, Max: 32 << 10,
			}},
		},
		Seed: 17,
	}
}

func testFleetJob(flows int) FleetJob {
	return FleetJob{
		Fleet:  scenarios.DefaultFleet(5),
		Algo:   Suss,
		Pop:    testPop(flows),
		Shards: 2,
	}
}

func TestFleetShardDeterminism(t *testing.T) {
	j := testFleetJob(200)
	j.Shard = 1
	a := RunFleetShard(j)
	b := RunFleetShard(j)
	if !reflect.DeepEqual(a.Flows, b.Flows) {
		t.Fatal("same shard job produced different flow records")
	}
	if a.Core != b.Core || a.JainGoodput != b.JainGoodput {
		t.Fatal("same shard job produced different aggregates")
	}
}

func TestFleetShardRefusesRetiredDomains(t *testing.T) {
	j := testFleetJob(10)
	j.Domains = 2
	r := RunFleetShard(j)
	if r.Err == nil || !strings.Contains(r.Err.Error(), "parallel event domains were removed") {
		t.Fatalf("Domains=2: want ShardResult.Err naming the removal, got %v", r.Err)
	}
	if len(r.Flows) != 0 {
		t.Errorf("refused shard simulated %d flows", len(r.Flows))
	}
}

func TestFleetShardCompletes(t *testing.T) {
	j := testFleetJob(300)
	j.Observe = true
	r := RunFleetShard(j)
	if got := r.Completed(); got != len(r.Flows) {
		t.Fatalf("only %d/%d flows completed by %v", got, len(r.Flows), r.SimEnd)
	}
	if r.JainGoodput <= 0 || r.JainGoodput > 1 {
		t.Errorf("Jain index %v out of (0,1]", r.JainGoodput)
	}
	if r.Core.DeliveredPackets == 0 {
		t.Error("no packets crossed the core bottleneck")
	}
	if r.Ledger == nil {
		t.Fatal("observed shard has no ledger")
	}
	if bad := r.Ledger.Check(); len(bad) > 0 {
		t.Errorf("ledger inconsistent: %v", bad)
	}
	for _, f := range r.Flows {
		if f.FCT <= 0 {
			t.Fatalf("flow %d completed with FCT %v", f.ID, f.FCT)
		}
	}
}

// The merged fleet must not depend on worker count: shard results are
// collected by index and each shard is its own simulator.
func TestFleetWorkerInvariance(t *testing.T) {
	j := testFleetJob(240)
	j.Shards = 4
	seq := RunFleet(context.Background(), j, Options{Workers: 1})
	par := RunFleet(context.Background(), j, Options{Workers: 4})
	if len(seq) != 4 || len(par) != 4 {
		t.Fatalf("got %d/%d shard results, want 4", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].Err != nil || par[i].Err != nil {
			t.Fatalf("shard %d errored: %v / %v", i, seq[i].Err, par[i].Err)
		}
		if !reflect.DeepEqual(seq[i].ShardResult, par[i].ShardResult) {
			t.Fatalf("shard %d differs between 1 and 4 workers", i)
		}
	}
}

// A population under sustained overload still terminates: the horizon
// caps the simulation even when flows cannot finish.
func TestFleetHorizonBoundsOverload(t *testing.T) {
	j := testFleetJob(120)
	j.Fleet.CoreRate = 1e6 // 1 Mbps shared core: hopeless congestion
	j.Fleet.AggRate = 1e6
	j.Horizon = 2 * time.Second
	r := RunFleetShard(j)
	last := workload.Horizon(j.Pop.Shard(j.Shard, j.Shards), 0)
	if r.SimEnd > last+2*time.Second+time.Millisecond {
		t.Fatalf("shard ran to %v, horizon was %v", r.SimEnd, last+2*time.Second)
	}
	if r.TotalDataDrops == 0 {
		t.Error("overloaded core recorded no drops")
	}
}
