package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"suss/internal/experiments"
	"suss/internal/netem"
	"suss/internal/runner"
	"suss/internal/scenarios"
)

// fig11GoldenSHA is the sha256 of the Fig. 11 CSV at seed 1 — the
// repo's behaviour pin, until now written down only in prose.
const fig11GoldenSHA = "b43ce3ce8986e0f06395f2ef90632bcee2ca4345666faf25131c3958775b1b37"

// workloadDef is one named set of inputs. setup builds everything a pass
// needs from the seed alone; the program under test only ever sees
// the generated jobs.
type workloadDef struct {
	name, why string
	setup     func(seed int64, o runOpts) (instance, error)
}

// instance is a workload set up for one seed.
type instance interface {
	// pass runs the workload once. Pass 0 is the warm-up; its outputs
	// become the reference every later pass must reproduce. A non-nil
	// rec makes it a traced pass: the benchmark drives each cell
	// through the layers' public calls itself, with a span around each.
	pass(i int, rec *spanRecorder) passStats
	// finish runs after the last timed pass, outside the timing, and
	// may fill in what only a reference computation can know.
	finish(timed []passStats) []string
	close() error
}

// passStats is what one pass measured and checked.
type passStats struct {
	index int // the pass number handed to instance.pass
	wall  time.Duration
	// coldWall is the part of the pass that computed never-seen cells:
	// the whole pass on a simulator workload, the cold submission on
	// sussd_matrix.
	coldWall time.Duration
	cells    int   // never-seen cells computed
	ops      int   // cells, shards or HTTP submissions attempted
	segs     int64 // simulated data segments sent
	retrans  int64
	simSec   float64 // simulated seconds covered
	allocs   uint64  // runtime.MemStats.Mallocs delta
	opMs     []float64
	errs     []string // failed correctness checks and guards
	counts   opCounts // traced passes only
}

func workloads() []workloadDef {
	return []workloadDef{
		{"fig11_sweep", "the paper's headline sweep: 252 short cells, a fresh engine each, so per-cell cold start and slow-start code dominate", setupFig11},
		{"bulk_steady", "six 64 MB flows on clean wired paths: the same stack in steady state on the fast path, where cold-start work must not show", setupBulk},
		{"loss_recovery", "Reno overshooting slow start on wired paths: thousands of segments lost at once drive SACK scoreboard, loss detection and reassembly", setupLoss},
		{"fleet_10k", "10 000 flows in 8 shard simulators: thousands of concurrent timers and flows, tree routing, demux, population generator and CDF fold", setupFleet},
		{"sussd_matrix", "the daemon over loopback HTTP: a never-seen fig11 matrix, then identical resubmissions served from the result cache", setupSussd},
	}
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// measured runs fn between two reads of the allocation counter and
// returns its wall time and the number of heap allocations it made.
func measured(fn func()) (time.Duration, uint64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return wall, m1.Mallocs - m0.Mallocs
}

// lapTimer turns the runner's serialized progress callback into
// per-op latencies: with one worker, the time between two completions
// is one op.
type lapTimer struct {
	last time.Time
	ms   []float64
}

func (l *lapTimer) start()       { l.last = time.Now() }
func (l *lapTimer) lap(_, _ int) { l.mark() }
func (l *lapTimer) mark() {
	now := time.Now()
	l.ms = append(l.ms, float64(now.Sub(l.last))/1e6)
	l.last = now
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// --- job-list workloads (fig11_sweep, bulk_steady, loss_recovery) ---

// jobsInstance runs a fixed list of download jobs serially through
// runner.Run and folds the results into output bytes.
type jobsInstance struct {
	jobs []runner.Job
	// fold turns the results into the bytes a user would read.
	fold func([]runner.Result) []byte
	// guard checks that the workload still stresses what it was built
	// to stress; it gets the pass totals.
	guard func(p passStats) []string
	// wantSHA, when set, pins the folded bytes.
	wantSHA string
	// ref is the warm-up pass's results: every later pass, traced or
	// not, must reproduce them exactly.
	ref []runner.DownloadResult
}

func (in *jobsInstance) pass(i int, rec *spanRecorder) passStats {
	var (
		res   []runner.Result
		out   []byte
		laps  lapTimer
		count opCounts
	)
	wall, allocs := measured(func() {
		laps.start()
		if rec == nil {
			res = runner.Run(context.Background(), in.jobs, runner.Options{Workers: 1, Progress: laps.lap})
			out = in.fold(res)
			return
		}
		rec.pass = i
		root := rec.begin(passRoot)
		res = make([]runner.Result, len(in.jobs))
		for k, j := range in.jobs {
			res[k] = runner.Result{Job: j, DownloadResult: tracedDownload(j, rec, &count)}
			laps.mark()
		}
		rec.in("experiments.fold", func() { out = in.fold(res) })
		rec.end(root)
	})
	p := passStats{wall: wall, coldWall: wall, cells: len(res), ops: len(res), allocs: allocs, opMs: laps.ms, counts: count}
	got := make([]runner.DownloadResult, len(res))
	bad := 0
	for k, r := range res {
		got[k] = r.DownloadResult
		p.segs += int64(r.Segments)
		p.retrans += int64(r.Retrans)
		p.simSec += r.FCT.Seconds()
		if r.Err != nil || !r.Completed || r.Delivered != r.Size {
			bad++
		}
	}
	if bad > 0 {
		p.errs = append(p.errs, fmt.Sprintf("%d of %d downloads did not deliver their whole size", bad, len(res)))
	}
	if in.ref == nil {
		in.ref = got
	} else if !reflect.DeepEqual(got, in.ref) {
		p.errs = append(p.errs, fmt.Sprintf("pass %d results differ from the warm-up pass", i))
	}
	if in.wantSHA != "" {
		if s := sha(out); s != in.wantSHA {
			p.errs = append(p.errs, fmt.Sprintf("output sha %s, want %s", s, in.wantSHA))
		}
	}
	p.errs = append(p.errs, in.guard(p)...)
	return p
}

func (in *jobsInstance) finish([]passStats) []string { return nil }
func (in *jobsInstance) close() error                { return nil }

// resultTable is the fold of the workloads that have no figure of
// their own: one line per cell with everything a download reports.
func resultTable(res []runner.Result) []byte {
	var b bytes.Buffer
	for _, r := range res {
		fmt.Fprintf(&b, "%s,%s,%d,%d,%d,%d,%d,%d\n", r.Job.Scenario.Name(), r.Algo, r.Size, int64(r.FCT), r.Segments, r.Retrans, r.RTOs, r.Drops)
	}
	return b.Bytes()
}

// The Fig. 11 matrix as the paper sweeps it and the daemon defaults to:
// Tokyo, the seven default sizes, three iterations. fig11_sweep runs
// it, sussd_matrix submits it, and several layer prices borrow it.
const fig11Iters = 3

func fig11Jobs(seed int64) []runner.Job {
	return experiments.Fig11Jobs(scenarios.GoogleTokyo, experiments.DefaultSizes, fig11Iters, seed)
}

// fig11CSV folds the matrix's results into the figure's CSV.
func fig11CSV(res []runner.Result) []byte {
	var b bytes.Buffer
	fig := experiments.Fig11FromResults(scenarios.GoogleTokyo, experiments.DefaultSizes, fig11Iters, res, false)
	if err := fig.WriteCSV(&b); err != nil {
		panic(err) // bytes.Buffer writes cannot fail
	}
	return b.Bytes()
}

func setupFig11(seed int64, _ runOpts) (instance, error) {
	in := &jobsInstance{
		jobs: fig11Jobs(seed),
		fold: fig11CSV,
		guard: func(p passStats) []string {
			if p.cells != 252 {
				return []string{fmt.Sprintf("fig11 matrix has %d cells, want 252", p.cells)}
			}
			return nil
		},
	}
	if seed == 1 {
		in.wantSHA = fig11GoldenSHA
	}
	return in, nil
}

// jitter returns n flow sizes around base that add up to n×base, each
// within base/16 of it. Two seeds never run byte-identical flows, yet
// every seed moves the same number of bytes, so a pass costs the same
// whichever seed drew it.
func jitter(rng *rand.Rand, n int, base int64) []int64 {
	sizes := make([]int64, n)
	var sum int64
	for i := range sizes {
		sizes[i] = rng.Int63n(base / 16)
		sum += sizes[i]
	}
	mean := sum / int64(n)
	for i := range sizes {
		sizes[i] += base - mean
	}
	sizes[0] += sum - mean*int64(n) // the rounding remainder
	return sizes
}

// Both of the next two workloads run on wired paths only. A wired
// scenario draws nothing from its RNG, so whether the mechanism under
// test engages depends on the path and the flow size, never on the
// luck of a seed: on the stochastic last hops one seed in four turns a
// clean 64 MB 4G flow into an 11 000-retransmit one, and another
// halves Reno's burst loss. The seed sets the flow sizes and the cell
// order instead.

func setupBulk(seed int64, _ runOpts) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	sizes := jitter(rng, 6, 64<<20)
	var jobs []runner.Job
	for _, srv := range []scenarios.Server{scenarios.GoogleTokyo, scenarios.GoogleUSEast} {
		sc := scenarios.New(srv, netem.Wired, seed)
		for _, algo := range []runner.Algo{runner.Cubic, runner.Suss, runner.BBR} {
			jobs = append(jobs, runner.Job{Scenario: sc, Algo: algo, Size: sizes[len(jobs)]})
		}
	}
	rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
	return &jobsInstance{jobs: jobs, fold: resultTable, guard: func(p passStats) []string {
		if share := float64(p.retrans) / float64(p.segs); share > 0.001 {
			return []string{fmt.Sprintf("retransmit share %.4f above 0.001: bulk_steady left the fast path", share)}
		}
		return nil
	}}, nil
}

func setupLoss(seed int64, _ runOpts) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	// From 31 MB up both flows are long enough that the round in which
	// Reno's doubling overshoots BDP plus buffer has fully left the
	// sender: 5503 segments lost at once from us-east, 6782 and a tail
	// RTO on sydney's shallow buffer, whatever the jitter adds or takes.
	sizes := jitter(rng, 2, 33<<20)
	jobs := []runner.Job{
		{Scenario: scenarios.New(scenarios.GoogleUSEast, netem.Wired, seed), Algo: runner.Reno, Size: sizes[0]},
		{Scenario: scenarios.New(scenarios.OracleSydney, netem.Wired, seed), Algo: runner.Reno, Size: sizes[1]},
	}
	rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
	return &jobsInstance{jobs: jobs, fold: resultTable, guard: func(p passStats) []string {
		if share := float64(p.retrans) / float64(p.segs); share < 0.10 {
			return []string{fmt.Sprintf("retransmit share %.4f below 0.10: loss_recovery no longer loses a burst", share)}
		}
		return nil
	}}, nil
}

// --- fleet_10k ---

type fleetInstance struct {
	fc   experiments.FleetConfig
	jobs [2]runner.FleetJob
	ref  [2][]runner.ShardResult
}

func setupFleet(seed int64, _ runOpts) (instance, error) {
	fc := experiments.DefaultFleetConfig(seed).Normalized()
	return &fleetInstance{fc: fc, jobs: experiments.FleetJobs(fc)}, nil
}

func (in *fleetInstance) pass(i int, rec *spanRecorder) passStats {
	var (
		shards [2][]runner.FleetResult
		laps   lapTimer
		count  opCounts
		out    bytes.Buffer
	)
	fold := func() {
		res := experiments.FleetFromShards(in.fc, shards, false)
		if err := res.WriteCSV(&out); err != nil {
			panic(err) // bytes.Buffer writes cannot fail
		}
	}
	wall, allocs := measured(func() {
		laps.start()
		if rec == nil {
			for v := range in.jobs {
				shards[v] = runner.RunFleet(context.Background(), in.jobs[v], runner.Options{Workers: 1, Progress: laps.lap})
			}
			fold()
			return
		}
		rec.pass = i
		root := rec.begin(passRoot)
		for v := range in.jobs {
			for s := 0; s < in.fc.Shards; s++ {
				j := in.jobs[v]
				j.Shard = s
				shards[v] = append(shards[v], runner.FleetResult{ShardResult: tracedFleetShard(j, rec, &count)})
				laps.mark()
			}
		}
		rec.in("experiments.fold", fold)
		rec.end(root)
	})
	p := passStats{wall: wall, coldWall: wall, allocs: allocs, opMs: laps.ms, counts: count}
	var got [2][]runner.ShardResult
	for v := range shards {
		done := 0
		for _, sr := range shards[v] {
			p.cells++
			if sr.Err != nil {
				p.errs = append(p.errs, fmt.Sprintf("shard %d: %v", sr.Shard, sr.Err))
			}
			done += sr.Completed()
			p.segs += int64(sr.Core.EnqueuedPackets)
			p.simSec += sr.SimEnd.Seconds()
			for _, f := range sr.Flows {
				p.retrans += int64(f.Retrans)
			}
			got[v] = append(got[v], sr.ShardResult)
		}
		if done != in.fc.Flows {
			p.errs = append(p.errs, fmt.Sprintf("variant %d completed %d of %d flows", v, done, in.fc.Flows))
		}
	}
	p.ops = p.cells
	if in.ref[0] == nil {
		in.ref = got
	} else if !reflect.DeepEqual(got, in.ref) {
		p.errs = append(p.errs, fmt.Sprintf("pass %d shard results differ from the warm-up pass", i))
	}
	if out.Len() == 0 {
		p.errs = append(p.errs, "merged fleet CSV is empty")
	}
	return p
}

func (in *fleetInstance) finish([]passStats) []string { return nil }
func (in *fleetInstance) close() error                { return nil }
