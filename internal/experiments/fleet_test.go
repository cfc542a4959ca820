package experiments

import (
	"strings"
	"testing"

	"suss/internal/runner"
)

// TestFleetSmoke is the CI fleet gate (`make fleet-smoke`): a ≥10k-flow
// population over ≥4 shards must run seconds-scale, produce identical
// merged per-class FCT CDF bytes at different worker counts (the
// determinism contract sharding must not break), and report the
// SUSS-on vs SUSS-off small-flow delta.
func TestFleetSmoke(t *testing.T) {
	fc := DefaultFleetConfig(1)
	if testing.Short() {
		fc.Flows = 2000
	}
	if fc.Flows >= 10000 && fc.Shards < 4 {
		t.Fatalf("smoke config must shard: %d shards", fc.Shards)
	}

	seq := RunFleet(fc, runner.Options{Workers: 1}, false)
	par := RunFleet(fc, runner.Options{Workers: 4}, false)
	for _, r := range [2]FleetResult{seq, par} {
		if len(r.Errs) > 0 {
			t.Fatalf("shard errors: %v", r.Errs)
		}
	}

	var seqCSV, parCSV strings.Builder
	if err := seq.WriteCSV(&seqCSV); err != nil {
		t.Fatal(err)
	}
	if err := par.WriteCSV(&parCSV); err != nil {
		t.Fatal(err)
	}
	if seqCSV.String() != parCSV.String() {
		t.Fatal("merged per-class CDF CSV differs between 1 and 4 workers")
	}

	total := 0
	for _, c := range seq.Classes {
		total += c.Flows
	}
	if total != fc.Flows {
		t.Fatalf("population accounted %d flows, want %d", total, fc.Flows)
	}
	// The population must actually finish under smoke load; a few
	// stragglers at the horizon are tolerable, mass failure is not.
	if n := seq.Incomplete[0] + seq.Incomplete[1]; n > fc.Flows/100 {
		t.Fatalf("%d flow-runs incomplete (>1%% of population)", n)
	}
	if seq.Jain[0] <= 0 || seq.Jain[1] <= 0 {
		t.Fatal("Jain indices missing")
	}

	t.Logf("small-flow mean-FCT improvement (SUSS on vs off): %.1f%%", 100*seq.SmallImprovement)
	t.Logf("all-flow improvement: %.1f%%  Jain off/on: %.3f/%.3f  core loss off/on: %.3f%%/%.3f%%",
		100*seq.AllImprovement, seq.Jain[0], seq.Jain[1], 100*seq.CoreLossRate[0], 100*seq.CoreLossRate[1])
}

// The CSV must also be stable across repeated runs in-process (no
// map-order or pointer-identity leaks into the output).
func TestFleetCSVStableAcrossRuns(t *testing.T) {
	fc := DefaultFleetConfig(7)
	fc.Flows = 800
	fc.Shards = 4
	var a, b strings.Builder
	if err := RunFleet(fc, runner.Options{Workers: 2}, false).WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := RunFleet(fc, runner.Options{Workers: 3}, false).WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("fleet CSV changed between identical runs")
	}
	if !strings.HasPrefix(a.String(), "variant,class,quantile,fct_s\n") {
		t.Fatalf("unexpected CSV header: %q", a.String()[:40])
	}
	if !strings.Contains(a.String(), "on,web,0.5,") {
		t.Error("CSV missing on/web median row")
	}
}
