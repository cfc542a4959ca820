// Package chaos is the liveness-invariant harness: a catalog of
// composable path impairments and a seeded matrix runner that drives
// every impairment against multiple congestion-control algorithms and
// seeds, asserting that each flow either completes or errors cleanly,
// that the cross-layer loss ledger balances, and that no simulation
// livelocks (a per-job wall-clock watchdog kills wedged runs with a
// flight-recorder dump).
//
// Surfaced as `sussim -chaos` and `make chaos`; CI runs the matrix
// under -race.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"suss/internal/netem"
	"suss/internal/netsim"
	"suss/internal/runner"
	"suss/internal/scenarios"
	"suss/internal/tcp"
)

// Impairment is one named chaos mode: Attach installs its stages (or
// receiver fault modes) on a freshly-built simulation. rng is a
// private stream derived from the job's seed, so every impairment's
// schedule is deterministic and decoupled from the scenario's draws.
type Impairment struct {
	Name   string
	Attach func(env runner.ChaosEnv, rng *rand.Rand)
}

// lastFwd returns the flow's last forward (data-direction) link — the
// paper's impaired last hop.
func lastFwd(env runner.ChaosEnv) *netsim.Link {
	return env.Path.Fwd[len(env.Path.Fwd)-1]
}

// Catalog returns the standard impairment set the chaos matrix sweeps:
// reordering, duplication, corruption, burst loss, a scheduled outage,
// random flaps, an abrupt RTT step, and a SACK-reneging receiver.
func Catalog() []Impairment {
	return []Impairment{
		{Name: "reorder", Attach: func(env runner.ChaosEnv, rng *rand.Rand) {
			lastFwd(env).AttachImpairments(netem.NewReorder(0.03, 2*time.Millisecond, 25*time.Millisecond, rng))
		}},
		{Name: "duplicate", Attach: func(env runner.ChaosEnv, rng *rand.Rand) {
			lastFwd(env).AttachImpairments(netem.NewDuplicate(0.02, time.Millisecond, rng))
		}},
		{Name: "corrupt", Attach: func(env runner.ChaosEnv, rng *rand.Rand) {
			lastFwd(env).AttachImpairments(netem.NewCorrupt(0.005, rng))
		}},
		{Name: "burst-loss", Attach: func(env runner.ChaosEnv, rng *rand.Rand) {
			lastFwd(env).AttachImpairments(netem.NewGilbertElliott(0.003, 0.25, 0, 0.5, rng))
		}},
		// The scheduled impairments are timed for the matrix's default
		// download (a few hundred ms of virtual time): every window
		// lands while the flow is alive.
		{Name: "outage", Attach: func(env runner.ChaosEnv, rng *rand.Rand) {
			lastFwd(env).AttachImpairments(&netem.Outage{Windows: []netem.Window{
				{Start: 60 * time.Millisecond, End: 180 * time.Millisecond},
				{Start: 400 * time.Millisecond, End: 480 * time.Millisecond},
			}})
		}},
		{Name: "flaps", Attach: func(env runner.ChaosEnv, rng *rand.Rand) {
			lastFwd(env).AttachImpairments(netem.NewFlaps(350*time.Millisecond, 60*time.Millisecond, rng))
		}},
		{Name: "rtt-step", Attach: func(env runner.ChaosEnv, rng *rand.Rand) {
			lastFwd(env).AttachImpairments(&netem.RTTStep{Steps: []netem.DelayStep{
				{At: 100 * time.Millisecond, Delta: 80 * time.Millisecond},
				{At: 350 * time.Millisecond, Delta: -50 * time.Millisecond},
			}})
		}},
		{Name: "sack-reneg", Attach: func(env runner.ChaosEnv, rng *rand.Rand) {
			env.Flow.Receiver.EnableReneging(50*time.Millisecond, 1.0, rng)
		}},
	}
}

// Options configures a chaos-matrix run.
type Options struct {
	// Impairments to sweep (DefaultOptions: the full Catalog).
	Impairments []Impairment
	// Algos are the congestion controllers each impairment runs under.
	Algos []runner.Algo
	// Seeds perturb every cell's impairment and scenario randomness.
	Seeds []int64
	// Size is the download size per flow.
	Size int64
	// WallLimit is the per-job watchdog budget.
	WallLimit time.Duration
	// Workers bounds parallel jobs (0 = GOMAXPROCS).
	Workers int
}

// DefaultOptions returns the matrix CI runs: full catalog × {SUSS,
// BBR, Reno} × 4 seeds, 4 MB downloads (long enough that every
// scheduled window in the catalog overlaps the flow), 30 s wall
// budget per job.
func DefaultOptions() Options {
	return Options{
		Impairments: Catalog(),
		Algos:       []runner.Algo{runner.Suss, runner.BBR, runner.Reno},
		Seeds:       []int64{1, 2, 3, 4},
		Size:        4 << 20,
		WallLimit:   30 * time.Second,
	}
}

// HardenedTransport is the TCP configuration chaos flows run with:
// everything the robustness work added, switched on.
func HardenedTransport() tcp.Config {
	cfg := tcp.DefaultConfig()
	cfg.FRTO = true
	cfg.AdaptReoWnd = true
	cfg.MaxConsecRTOs = 8
	return cfg
}

// Cell is one matrix entry's outcome.
type Cell struct {
	Impairment string
	Algo       runner.Algo
	Seed       int64
	Result     runner.DownloadResult
	// Violations holds ledger-identity failures (empty = balanced).
	Violations []string
	// Err is the cell's verdict: nil means the flow completed (or gave
	// up cleanly on a dead path) with a balanced ledger and no stall.
	Err error
}

// ok reports whether the cell's flow ended acceptably: completed, or
// failed cleanly with the retransmission-limit give-up (a permanent
// outage is supposed to do that).
func (c *Cell) ok() bool {
	if c.Result.Stall != nil {
		return false
	}
	if len(c.Violations) > 0 {
		return false
	}
	return c.Result.Completed || errors.Is(c.Result.FlowErr, tcp.ErrRetransLimit)
}

// MatrixResult is the full chaos-matrix outcome.
type MatrixResult struct {
	Cells []Cell
}

// Failures returns the cells that did not pass.
func (m *MatrixResult) Failures() []Cell {
	var out []Cell
	for _, c := range m.Cells {
		if c.Err != nil {
			out = append(out, c)
		}
	}
	return out
}

// Render writes a human-readable summary: one line per
// impairment × algo with completion and robustness counters, then any
// failures in full (including watchdog dumps).
func (m *MatrixResult) Render() string {
	type key struct {
		imp  string
		algo runner.Algo
	}
	agg := map[key]*struct {
		n, done, clean int
		undo, reneg    int
		retrans        int
	}{}
	var keys []key
	for _, c := range m.Cells {
		k := key{c.Impairment, c.Algo}
		a := agg[k]
		if a == nil {
			a = &struct {
				n, done, clean int
				undo, reneg    int
				retrans        int
			}{}
			agg[k] = a
			keys = append(keys, k)
		}
		a.n++
		if c.Result.Completed {
			a.done++
		}
		if c.Err == nil {
			a.clean++
		}
		a.retrans += c.Result.Retrans
		if l := c.Result.Ledger; l != nil {
			a.undo += int(l.SpuriousRTOUndos)
			a.reneg += int(l.SackRenegings)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].imp != keys[j].imp {
			return keys[i].imp < keys[j].imp
		}
		return keys[i].algo < keys[j].algo
	})
	var b strings.Builder
	b.WriteString("chaos matrix:\n")
	for _, k := range keys {
		a := agg[k]
		fmt.Fprintf(&b, "  %-11s %-9s %d/%d ok  completed=%d retrans=%d rto_undos=%d renegs=%d\n",
			k.imp, k.algo, a.clean, a.n, a.done, a.retrans, a.undo, a.reneg)
	}
	if fails := m.Failures(); len(fails) > 0 {
		fmt.Fprintf(&b, "%d FAILING cells:\n", len(fails))
		for _, c := range fails {
			fmt.Fprintf(&b, "  %s/%s seed=%d: %v\n", c.Impairment, c.Algo, c.Seed, c.Err)
			for _, v := range c.Violations {
				fmt.Fprintf(&b, "    ledger: %s\n", v)
			}
			if c.Result.Stall != nil {
				b.WriteString(indent(c.Result.Stall.Dump(), "    "))
			}
		}
	}
	return b.String()
}

func indent(s, pre string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = pre + l
	}
	return strings.Join(lines, "\n") + "\n"
}

// Run executes the chaos matrix on the worker pool and judges every
// cell: the flow must complete or give up cleanly, the loss ledger
// must balance under the impairment, and the watchdog must not have
// had to intervene.
func Run(ctx context.Context, opt Options) *MatrixResult {
	if len(opt.Impairments) == 0 {
		opt.Impairments = Catalog()
	}
	transport := HardenedTransport()
	type cellKey struct {
		imp  int
		algo runner.Algo
		seed int64
	}
	var jobs []runner.Job
	var keys []cellKey
	for i, imp := range opt.Impairments {
		attach := imp.Attach
		for _, algo := range opt.Algos {
			for _, seed := range opt.Seeds {
				// The paper's London path: 35 ms RTT, 300 Mbit/s, shallow
				// 0.3×BDP bottleneck buffer — enough loss pressure that the
				// impairments interact with real congestion control.
				sc := scenarios.New(scenarios.OracleLondon, netem.Wired, seed)
				jobs = append(jobs, runner.Job{
					Scenario:  sc,
					Algo:      algo,
					Size:      opt.Size,
					Observe:   true,
					Transport: &transport,
					WallLimit: opt.WallLimit,
					Impair: func(env runner.ChaosEnv) {
						// Private stream per cell: decoupled from the
						// scenario RNG and from every other impairment.
						attach(env, rand.New(rand.NewSource(env.Seed^0x5eed0fc4a05)))
					},
				})
				keys = append(keys, cellKey{i, algo, seed})
			}
		}
	}
	results := runner.Run(ctx, jobs, runner.Options{Workers: opt.Workers})
	m := &MatrixResult{Cells: make([]Cell, len(results))}
	for i, r := range results {
		c := Cell{
			Impairment: opt.Impairments[keys[i].imp].Name,
			Algo:       keys[i].algo,
			Seed:       keys[i].seed,
			Result:     r.DownloadResult,
		}
		if l := r.Ledger; l != nil {
			c.Violations = l.Check()
		}
		if !c.ok() {
			err := r.Err
			if err == nil {
				err = fmt.Errorf("ledger violations: %s", strings.Join(c.Violations, "; "))
			}
			c.Err = err
		}
		m.Cells[i] = c
	}
	return m
}
