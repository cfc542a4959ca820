package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"suss/internal/obs"
	"suss/internal/runner"
	"suss/internal/scenarios"
	"suss/internal/stats"
	"suss/internal/workload"
)

// SmallFlowCutoff separates the mice the paper's headline claim is
// about from the elephants that carry the bytes.
const SmallFlowCutoff = 1 << 20

// FleetConfig describes the population-scale experiment: a flow
// population sharded over independent bottleneck trees, run once with
// SUSS off (CUBIC) and once with SUSS on over the identical
// population.
type FleetConfig struct {
	// Fleet is the per-shard tree (zero value = scenarios.DefaultFleet).
	Fleet scenarios.Fleet
	// Flows is the total population size; Shards splits it over
	// independent trees (one per worker).
	Flows  int
	Shards int
	// ArrivalRate is each shard's Poisson arrival rate (flows/s).
	ArrivalRate float64
	// Mix is the class mixture (nil = workload.DefaultMix; the smoke
	// tier uses SmokeMix to stay seconds-scale).
	Mix  []workload.ClassMix
	Seed int64
	// Horizon caps simulated time past the last arrival (0 = the
	// runner default).
	Horizon time.Duration
}

// SmokeMix is the CI-sized population: the same three classes as
// DefaultMix with the elephant tail clipped to 512 KB, so a ≥10k-flow
// fleet finishes in CI-acceptable time under -race while still
// exercising cross-class contention.
func SmokeMix() []workload.ClassMix {
	return []workload.ClassMix{
		{Class: workload.Web, Weight: 0.75, Sizes: workload.Lognormal{
			Mu: math.Log(16 << 10), Sigma: 0.9, Min: 2 << 10, Max: 128 << 10,
		}},
		{Class: workload.RPC, Weight: 0.15, Sizes: workload.Lognormal{
			Mu: math.Log(4 << 10), Sigma: 0.6, Min: 512, Max: 32 << 10,
		}},
		{Class: workload.Video, Weight: 0.10, Sizes: workload.BoundedPareto{
			Alpha: 1.3, Min: 96 << 10, Max: 512 << 10,
		}},
	}
}

// DefaultFleetConfig returns the smoke-tier fleet: 10 000 flows over
// four shards of the reference tree, ~60 % offered load on each
// shard's core.
func DefaultFleetConfig(seed int64) FleetConfig {
	return FleetConfig{
		Fleet:       scenarios.DefaultFleet(seed),
		Flows:       10000,
		Shards:      4,
		ArrivalRate: 300,
		Mix:         SmokeMix(),
		Seed:        seed,
	}
}

// FleetClassStats is one flow class's population outcome under both
// variants (index 0 = SUSS off, 1 = on).
type FleetClassStats struct {
	Class     workload.Class
	Flows     int
	Completed [2]int
	// CDF is the merged FCT distribution in seconds over completed
	// flows of the class.
	CDF     [2]stats.CDF
	MeanFCT [2]float64
}

// FleetResult is the merged population comparison.
type FleetResult struct {
	Config  FleetConfig
	Classes []FleetClassStats

	// SmallImprovement is the relative mean-FCT gain of SUSS on flows
	// ≤ SmallFlowCutoff — the fleet-scale version of the paper's
	// headline number.
	SmallImprovement float64
	// AllImprovement is the same over the whole population.
	AllImprovement float64

	// Jain is the mean per-shard Jain index over completed flows'
	// goodputs.
	Jain [2]float64
	// CoreLossRate is drops/(delivered+drops) summed over every
	// shard's core bottleneck.
	CoreLossRate [2]float64
	// TotalDrops sums congestion drops over every data-path link of
	// every shard.
	TotalDrops [2]int

	// Incomplete counts flows that never finished (per variant).
	Incomplete [2]int
	// Ledgers aggregates cross-layer loss accounting over all shards
	// (nil unless the run had loss accounting).
	Ledgers [2]*obs.LossLedger
	// Errs collects shard-level failures (stalls, panics).
	Errs []error
}

// Normalized returns the config with the documented defaults filled
// in: the reference fleet tree when none is set, at least one shard.
// RunFleet and FleetJobs apply it; the experiment service hashes the
// normalized form so defaulted and explicit configs cache identically.
func (fc FleetConfig) Normalized() FleetConfig {
	if fc.Fleet.Groups == 0 {
		fc.Fleet = scenarios.DefaultFleet(fc.Seed)
	}
	if fc.Shards <= 0 {
		fc.Shards = 1
	}
	return fc
}

// Population returns the flow population RunFleet replays: Poisson
// arrivals at the configured rate, the configured (or default) class
// mix, first arrival at 100 ms.
func (fc FleetConfig) Population() workload.PopulationSpec {
	mix := fc.Mix
	if mix == nil {
		mix = workload.DefaultMix()
	}
	return workload.PopulationSpec{
		Flows:    fc.Flows,
		Arrivals: workload.PoissonArrivals{Rate: fc.ArrivalRate},
		Mix:      mix,
		Seed:     fc.Seed,
		Start:    100 * time.Millisecond,
	}
}

// FleetJobs returns the two per-variant shard-job templates (index 0 =
// SUSS off, 1 = on) the fleet comparison runs. Shard is left zero:
// runner.RunFleet ranges it, and callers executing shards themselves
// set it per cell.
func FleetJobs(fc FleetConfig) [2]runner.FleetJob {
	fc = fc.Normalized()
	pop := fc.Population()
	var out [2]runner.FleetJob
	for variant, v := range offOn {
		out[variant] = runner.FleetJob{
			Fleet:   fc.Fleet,
			Algo:    v.Algo,
			Pop:     pop,
			Shards:  fc.Shards,
			Horizon: fc.Horizon,
		}
	}
	return out
}

// RunFleet runs the population twice — SUSS off, then on — over the
// identical sharded population and merges the per-class FCT
// distributions. Rendered output and CSV bytes are identical at any
// worker count: shards are independent instance-seeded simulations
// collected by index. lossAcct attaches flight recorders to every flow
// and aggregates their loss ledgers per variant.
func RunFleet(fc FleetConfig, opt runner.Options, lossAcct bool) FleetResult {
	fc = fc.Normalized()
	jobs := FleetJobs(fc)
	var shards [2][]runner.FleetResult
	for variant := range jobs {
		jobs[variant].Observe = lossAcct
		shards[variant] = runner.RunFleet(context.Background(), jobs[variant], opt)
	}
	return FleetFromShards(fc, shards, lossAcct)
}

// FleetFromShards merges per-variant, shard-ordered results into the
// population comparison — the aggregation half of RunFleet, split out
// so the experiment service can assemble a result from individually
// cached shards. fc should be normalized.
func FleetFromShards(fc FleetConfig, byVariant [2][]runner.FleetResult, lossAcct bool) FleetResult {
	res := FleetResult{Config: fc}
	classes := workload.Classes()
	byClass := make(map[workload.Class]*FleetClassStats, len(classes))
	for _, c := range classes {
		byClass[c] = &FleetClassStats{Class: c}
	}

	// fcts[variant][class] collects completed FCTs in seconds; small
	// and all collect them across classes for the headline deltas.
	var small, all [2][]float64
	for variant := 0; variant < 2; variant++ {
		shards := byVariant[variant]

		perClass := make(map[workload.Class][]float64, len(classes))
		var jain float64
		var coreDel, coreDrop int
		for _, sr := range shards {
			if sr.Err != nil {
				res.Errs = append(res.Errs, sr.Err)
			}
			jain += sr.JainGoodput
			coreDel += sr.Core.DeliveredPackets
			coreDrop += sr.Core.DroppedPackets
			res.TotalDrops[variant] += sr.TotalDataDrops
			if lossAcct && sr.Ledger != nil {
				if res.Ledgers[variant] == nil {
					res.Ledgers[variant] = &obs.LossLedger{}
				}
				res.Ledgers[variant].Add(*sr.Ledger)
			}
			for _, f := range sr.Flows {
				cs := byClass[f.Class]
				if variant == 0 {
					cs.Flows++
				}
				if !f.Completed {
					res.Incomplete[variant]++
					continue
				}
				cs.Completed[variant]++
				fct := f.FCT.Seconds()
				perClass[f.Class] = append(perClass[f.Class], fct)
				all[variant] = append(all[variant], fct)
				if f.Size <= SmallFlowCutoff {
					small[variant] = append(small[variant], fct)
				}
			}
		}
		res.Jain[variant] = jain / float64(len(shards))
		if coreDel+coreDrop > 0 {
			res.CoreLossRate[variant] = float64(coreDrop) / float64(coreDel+coreDrop)
		}
		for _, c := range classes {
			byClass[c].CDF[variant] = stats.NewCDF(perClass[c])
			byClass[c].MeanFCT[variant] = stats.Mean(perClass[c])
		}
	}
	for _, c := range classes {
		res.Classes = append(res.Classes, *byClass[c])
	}
	res.SmallImprovement = Improvement(stats.Mean(small[0]), stats.Mean(small[1]))
	res.AllImprovement = Improvement(stats.Mean(all[0]), stats.Mean(all[1]))
	return res
}

// Render prints the population comparison the way the paper's tables
// read: per-class FCT quantiles off/on, then the headline deltas.
func (r FleetResult) Render() string {
	var b strings.Builder
	fc := r.Config
	fmt.Fprintf(&b, "Fleet — %d flows over %d shard(s) of %d clients (%d groups × %d), core %.0f Mbit/s\n",
		fc.Flows, fc.Shards, fc.Fleet.Groups*fc.Fleet.HostsPerGroup, fc.Fleet.Groups, fc.Fleet.HostsPerGroup,
		fc.Fleet.CoreRate/1e6)
	fmt.Fprintf(&b, "  %-7s %8s  %25s  %25s\n", "class", "flows", "SUSS off (p50/p95/p99 s)", "SUSS on (p50/p95/p99 s)")
	for _, c := range r.Classes {
		if c.Flows == 0 {
			continue
		}
		q := func(v int) string {
			return fmt.Sprintf("%7.3f/%7.3f/%7.3f", c.CDF[v].Quantile(0.50), c.CDF[v].Quantile(0.95), c.CDF[v].Quantile(0.99))
		}
		fmt.Fprintf(&b, "  %-7s %8d  %25s  %25s\n", c.Class, c.Flows, q(0), q(1))
	}
	fmt.Fprintf(&b, "  small-flow (≤%s) mean-FCT improvement: %.1f%%   all flows: %.1f%%\n",
		SizeLabel(SmallFlowCutoff), 100*r.SmallImprovement, 100*r.AllImprovement)
	fmt.Fprintf(&b, "  Jain (goodput): off=%.3f on=%.3f   core loss: off=%.3f%% on=%.3f%%   drops: off=%d on=%d\n",
		r.Jain[0], r.Jain[1], 100*r.CoreLossRate[0], 100*r.CoreLossRate[1], r.TotalDrops[0], r.TotalDrops[1])
	if n := r.Incomplete[0] + r.Incomplete[1]; n > 0 {
		fmt.Fprintf(&b, "  WARNING: %d flow-run(s) did not complete (excluded from FCT stats)\n", n)
	}
	for v, led := range r.Ledgers {
		if led == nil {
			continue
		}
		variant := [2]string{"off", "on"}[v]
		fmt.Fprintf(&b, "  loss accounting (%s): sent=%d retrans=%d (fast=%d rto=%d tlp=%d) path_drops=%d\n",
			variant, led.SegsSent, led.SegsRetrans, led.RetransFast, led.RetransRTO, led.RetransTLP, led.PathDataDrops)
		for _, p := range led.Check() {
			fmt.Fprintf(&b, "    INCONSISTENT: %s\n", p)
		}
	}
	for _, err := range r.Errs {
		fmt.Fprintf(&b, "  SHARD ERROR: %v\n", err)
	}
	return b.String()
}

// WriteCSV emits the merged per-class FCT CDFs as
// variant,class,quantile,fct_s rows — the determinism contract the
// fleet smoke test pins: identical bytes for identical (config, seed)
// at any worker count.
func (r FleetResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "variant,class,quantile,fct_s"); err != nil {
		return err
	}
	for v, variant := range [2]string{"off", "on"} {
		for _, c := range r.Classes {
			if c.Flows == 0 {
				continue
			}
			if err := c.CDF[v].WriteCSV(w, fmt.Sprintf("%s,%s", variant, c.Class), nil); err != nil {
				return err
			}
		}
	}
	return nil
}
