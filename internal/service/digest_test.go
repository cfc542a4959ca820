package service

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"suss"
	"suss/internal/chaos"
	"suss/internal/core"
	"suss/internal/experiments"
	"suss/internal/netem"
	"suss/internal/runner"
	"suss/internal/scenarios"
	"suss/internal/service/confhash"
)

// fig11GoldenSHA is the SHA-256 of the seed-1 fig11 CSV
// (`{"kind":"fig11"}`: 252 cells), the figure's reference bytes.
const fig11GoldenSHA = "b43ce3ce8986e0f06395f2ef90632bcee2ca4345666faf25131c3958775b1b37"

// behaviourTable is the committed identity table: one line per cell,
// `label  key  sha256(record)`, where the record is what the daemon
// persists for the cell (a chaos cell appends its loss ledger, and has
// no key since an Impair hook is not cacheable: "-"; so have the trace
// figures and the public API's runs, whose record is their result
// printed). The cache keys a
// cell by its config alone, so a change that moves any record makes
// every cache file written before it serve results the code no longer
// computes.
const behaviourTable = "testdata/behaviour.txt"

var update = flag.Bool("update", false, "rewrite "+behaviourTable+" from what this tree computes")

// TestBehaviourDigest pins what the code computes, cell by cell,
// through the same encoders the daemon persists with, and names every
// cell that moved. `go test ./internal/service -run TestBehaviourDigest
// -update` (make identity) rewrites the table.
func TestBehaviourDigest(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("simulates ~1 100 cells")
	}
	got := behaviourLines(t)
	if *update {
		if err := os.WriteFile(behaviourTable, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cells to %s", len(got), behaviourTable)
		return
	}
	raw, err := os.ReadFile(behaviourTable)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := map[string]string{}
	var order []string
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		label, rest, _ := strings.Cut(sc.Text(), "  ")
		want[label] = rest
		order = append(order, label)
	}
	have := map[string]string{}
	moved := 0
	for _, l := range got {
		label, rest, _ := strings.Cut(l, "  ")
		have[label] = rest
		switch w, ok := want[label]; {
		case !ok:
			t.Errorf("new cell %s (not in the table)", label)
		case w != rest:
			moved++
			if moved <= 40 {
				t.Errorf("moved: %s\n\ttable %s\n\tnow   %s", label, w, rest)
			}
		}
	}
	for _, label := range order {
		if _, ok := have[label]; !ok {
			t.Errorf("cell %s is in the table but no longer computed", label)
		}
	}
	if moved > 0 {
		t.Errorf("behaviour moved in %d of %d cells", moved, len(got))
	}
}

// behaviourLines computes the identity table in its committed order.
func behaviourLines(t *testing.T) []string {
	var lines []string
	add := func(label, key string, record []byte) {
		sum := sha256.Sum256(record)
		lines = append(lines, label+"  "+key+"  "+hex.EncodeToString(sum[:]))
	}

	// The daemon's two kinds, as it serves them: the fig11 matrix and
	// both fleet variants' 400-flow shard.
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Drain(context.Background()) })
	for _, seed := range []int64{1, 7} {
		var labels []string
		for _, j := range experiments.Fig11Jobs(scenarios.GoogleTokyo, experiments.DefaultSizes, 3, seed) {
			labels = append(labels, fmt.Sprintf("fig11/s%d/%s/%s/%d/i%d", seed, j.Scenario.Name(), j.Algo, j.Size, j.Iter))
		}
		for _, req := range []SubmitRequest{{Kind: "fig11", Seed: seed}, {Kind: "fleet", Flows: 400, Shards: 1, Seed: seed}} {
			if req.Kind == "fleet" {
				labels = []string{fmt.Sprintf("fleet/s%d/cubic/shard0", seed), fmt.Sprintf("fleet/s%d/cubic+suss/shard0", seed)}
			}
			resp, err := s.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			b := s.batch(resp.ID)
			<-b.done
			st, _ := b.status(true)
			if st.State != stateDone {
				t.Fatalf("%s batch %s: %s", req.Kind, st.State, st.Error)
			}
			if len(st.Detail) != len(labels) {
				t.Fatalf("%s seed %d: %d cells, %d labels", req.Kind, seed, len(st.Detail), len(labels))
			}
			for i, c := range st.Detail {
				raw, ok := s.cache.Get(c.Key)
				if !ok {
					t.Fatalf("%s cell %s (%s) was not cached", req.Kind, c.Key, c.Status)
				}
				add(labels[i], c.Key, raw)
			}
			add(fmt.Sprintf("%s/s%d/csv", req.Kind, seed), "-", b.csv)
			if sum := sha256.Sum256(b.csv); req.Kind == "fig11" && seed == 1 && hex.EncodeToString(sum[:]) != fig11GoldenSHA {
				t.Errorf("fig11 CSV sha256 %x, golden %s", sum, fig11GoldenSHA)
			}
		}
	}

	// Downloads outside the daemon's kinds, run on the pool.
	cells := identityCells()
	outs := runner.Map(context.Background(), cells, func(ctx context.Context, _ int, c identityCell) ([]byte, error) {
		r := runner.ScratchFrom(ctx).Download(c.job)
		res, _ := jobCell(c.job, r)
		raw, err := encodeJobCell(res)
		if err == nil && r.Ledger != nil {
			raw = fmt.Appendf(raw, " %+v", *r.Ledger)
		}
		return raw, err
	}, runner.Options{Workers: 2})
	for i, c := range cells {
		if outs[i].Err != nil {
			t.Fatalf("%s: %v", c.label, outs[i].Err)
		}
		key, err := confhash.JobKey(c.job)
		if err != nil {
			key = "-"
		}
		add(c.label, key, outs[i].Value)
	}

	// Single-flow runs the paper's trace figures and the public API make.
	f01 := experiments.RunFig01(60<<20, 1)
	for i, a := range f01.Algos {
		add(fmt.Sprintf("fig01/s1/%s", a), "-", fmt.Appendf(nil, "%v %v %v %v",
			f01.Theta[i], f01.DeliveredAt[i], f01.OptimalAt[i], f01.RampLoss[i]))
	}
	f09 := experiments.RunFig09(25<<20, 1)
	for v, name := range []string{"off", "on"} {
		rec := fmt.Appendf(nil, "%v %v %v %v %v", f09.ExitCwnd[v], f09.TimeToExitCwnd[v],
			f09.MaxSRTTDuringSS[v], f09.DeliveredAt2s[v], f09.Traces[v].Samples)
		if v == 1 {
			rec = fmt.Appendf(rec, " %v", f09.GHistory)
		}
		add("fig09/s1/"+name, "-", rec)
	}
	f13 := experiments.RunFig13(1)
	for v, name := range []string{"off", "on"} {
		add("fig13/s1/"+name, "-", fmt.Appendf(nil, "%v", f13.TimeAt[v]))
	}
	for _, link := range []suss.LinkType{suss.Wired, suss.LTE4G} {
		for _, a := range []suss.Algorithm{suss.CUBIC, suss.CUBICWithSUSS} {
			cfg := suss.PathConfig{RateMbps: 50, RTT: 100 * time.Millisecond, Link: link, Seed: 1}
			res, fr, err := suss.RunObserved(cfg, a, 4<<20)
			if err != nil {
				t.Fatalf("root %s %s: %v", link, a, err)
			}
			rec := fmt.Appendf(nil, "%+v\n", res)
			var counters bytes.Buffer
			if err := fr.WriteCounters(&counters); err != nil {
				t.Fatal(err)
			}
			add(fmt.Sprintf("root/s1/%s/%s", link, a), "-", append(rec, counters.Bytes()...))
		}
	}

	// Multi-flow runs on the local dumbbell testbed, and the two-hop
	// paths of the AQM comparison and Appendix B.
	joinAt, horizon := 15*time.Second, 40*time.Second
	for _, a := range []runner.Algo{runner.Cubic, runner.BBR2} {
		r := experiments.RunFig02(a, 100*time.Millisecond, 2, joinAt, horizon, runner.Options{})
		add("fig02/"+a.String(), "-", fmt.Appendf(nil, "%v %v %v %v", r.FairShare, r.Share, r.TimeToHalfShare, r.TimeToFairShare))
	}
	f15 := experiments.RunFig15(experiments.Fig15Config{RTT: 200 * time.Millisecond, BufferBDP: 1}, joinAt, horizon, runner.Options{})
	for v, name := range []string{"off", "on"} {
		add("fig15/200ms/1bdp/"+name, "-", fmt.Appendf(nil, "%v %v %v", f15.Jain[v], f15.RecoveryTime[v], f15.MeanPostJoin[v]))
	}
	f16 := experiments.RunFig16(runner.Cubic, runner.Suss, 100*time.Millisecond, 1, 40<<20, runner.Options{})
	add("fig16/40MB", "-", fmt.Appendf(nil, "%v %v %v", f16.LargeFCT, f16.SmallFCTs, f16.LargeGoodput))
	t1 := experiments.RunTable1(runner.Cubic, 40<<20, runner.Options{})
	add("table1/cubic/40MB", "-", fmt.Appendf(nil, "%v %v", t1.Rows, t1.Failed))
	wm := experiments.RunWebMix(40, 3, 1, runner.Options{})
	add("webmix/s1/40", "-", fmt.Appendf(nil, "%v", wm))
	aqm := experiments.RunAQMComparison(4<<20, runner.Options{})
	add("aqm/4MB", "-", fmt.Appendf(nil, "%v %v %v %v %v", aqm.Variants, aqm.FCT, aqm.Loss, aqm.MaxRTTms, aqm.Incomplete))
	for _, dir := range []string{"drop", "rise"} {
		add("appendixB/"+dir, "-", fmt.Appendf(nil, "%v", experiments.RunBtlBwVariation(dir, 8<<20, runner.Options{})))
	}
	for _, on := range []bool{false, true} {
		r, err := suss.RunFairness(suss.FairnessConfig{RTT: 100 * time.Millisecond, BufferBDP: 1, JoinAt: joinAt, Horizon: horizon, WithSUSS: on})
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("root/fairness/suss=%v", on), "-", fmt.Appendf(nil, "%v", r))
	}
	web, err := suss.RunWebWorkload(40, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	add("root/webworkload/s1/40", "-", fmt.Appendf(nil, "%v", web))
	return lines
}

type identityCell struct {
	label string
	job   runner.Job
}

// identityCells are the table's download cells: the 28 internet
// scenarios under every algorithm at 4 MB (seeds 1 and 7) and under
// each SUSS ablation and Kmax variant (seed 1), the chaos catalog under
// every algorithm on the hardened transport (seed 1), and a Reno cell
// losing thousands of segments at once on a wired path.
func identityCells() []identityCell {
	var cells []identityCell
	algos := []runner.Algo{runner.Cubic, runner.Suss, runner.BBR, runner.BBR2, runner.CubicHSPP, runner.BBRSuss, runner.Reno}
	for _, seed := range []int64{1, 7} {
		for _, sc := range scenarios.All(seed) {
			for _, a := range algos {
				cells = append(cells, identityCell{fmt.Sprintf("matrix/s%d/%s/%s", seed, sc.Name(), a),
					runner.Job{Scenario: sc, Algo: a, Size: 4 << 20}})
			}
		}
	}
	variants := []struct {
		name string
		set  func(*core.Options)
	}{
		{"nopacing", func(o *core.Options) { o.NoPacing = true }},
		{"paceall", func(o *core.Options) { o.PaceEverything = true }},
		{"noguard", func(o *core.Options) { o.NoGuard = true }},
		{"kmax2", func(o *core.Options) { o.Kmax = 2 }},
		{"kmax3", func(o *core.Options) { o.Kmax = 3 }},
	}
	for _, v := range variants {
		opt := core.DefaultOptions()
		v.set(&opt)
		for _, sc := range scenarios.All(1) {
			cells = append(cells, identityCell{fmt.Sprintf("suss-%s/s1/%s", v.name, sc.Name()),
				runner.Job{Scenario: sc, Algo: runner.Suss, Size: 4 << 20, SussOpt: &opt}})
		}
	}
	hardened := chaos.HardenedTransport()
	for _, imp := range chaos.Catalog() {
		attach := imp.Attach
		for _, a := range algos {
			cells = append(cells, identityCell{fmt.Sprintf("chaos/s1/%s/%s", imp.Name, a), runner.Job{
				Scenario: scenarios.New(scenarios.OracleLondon, netem.Wired, 1), Algo: a, Size: 4 << 20,
				Observe: true, Transport: &hardened,
				Impair: func(env runner.ChaosEnv) { attach(env, rand.New(rand.NewSource(env.Seed^0x5eed0fc4a05))) },
			}})
		}
	}
	return append(cells, identityCell{"reno-burst/s1/google-us-east/wired", digestLossJobs()[0]})
}

// digestLossJobs are two loss-heavy cells: a Reno cell losing
// thousands of segments at once on a wired path, and a
// hardened-transport chaos cell under burst loss.
func digestLossJobs() []runner.Job {
	hardened := chaos.HardenedTransport()
	var burst chaos.Impairment
	for _, imp := range chaos.Catalog() {
		if imp.Name == "burst-loss" {
			burst = imp
		}
	}
	return []runner.Job{
		{Scenario: scenarios.New(scenarios.GoogleUSEast, netem.Wired, 1), Algo: runner.Reno, Size: 33 << 20},
		{
			Scenario: scenarios.New(scenarios.OracleLondon, netem.Wired, 1), Algo: runner.Suss, Size: 4 << 20,
			Observe: true, Transport: &hardened,
			Impair: func(env runner.ChaosEnv) { burst.Attach(env, rand.New(rand.NewSource(env.Seed^0x5eed0fc4a05))) },
		},
	}
}
