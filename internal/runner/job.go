package runner

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"suss/internal/core"
	"suss/internal/netsim"
	"suss/internal/obs"
	"suss/internal/scenarios"
	"suss/internal/tcp"
)

// DefaultHorizon bounds a single download simulation. FCTs in the
// evaluation are seconds, not minutes, so a flow still running at the
// horizon is pathological and reported as incomplete.
const DefaultHorizon = 20 * time.Minute

// ErrIncomplete marks a download whose flow did not finish within the
// horizon.
var ErrIncomplete = errors.New("flow did not complete within the horizon")

// Job declares one seeded file download over an internet-matrix
// scenario: the unit of work every sweep in the evaluation fans out
// over. Iter perturbs the impairment seed so repeated runs sample the
// stochastic wireless models, mirroring the paper's 50 iterations; the
// effective seed depends only on (Scenario.Seed, Iter), never on
// execution order.
type Job struct {
	Scenario scenarios.Scenario
	Algo     Algo
	Size     int64
	Iter     int
	// Backend is retired: the runner drives the deterministic simulator
	// only (wall-clock substrates are wire.Conns a test wires up itself,
	// see udpbackend.Loopback). Like Domains the field survives because
	// the frozen bench/ module reads it; "" and "sim" are accepted and
	// Download panics on anything else.
	Backend string
	// SussOpt overrides the SUSS configuration when Algo == Suss (nil
	// = defaults); ablations use it to disable individual mechanisms.
	SussOpt *core.Options
	// Horizon caps simulated time (0 = DefaultHorizon).
	Horizon time.Duration
	// Observe attaches a flight recorder (sender, receiver, controller
	// and every forward link) and fills DownloadResult.Ledger. Each job
	// gets its own registry, so observed sweeps stay race-free at any
	// worker count.
	Observe bool
	// Transport overrides the TCP configuration (nil = DefaultConfig);
	// chaos runs use it to switch on the hardening knobs (F-RTO,
	// adaptive reordering window, a tighter RTO give-up cap).
	Transport *tcp.Config
	// WallLimit arms a wall-clock watchdog on the simulation: a job
	// that burns this much real time without draining is killed and
	// reported as a *StallError (with a flight-recorder tail when the
	// job is observed). Zero disables the watchdog. A watchdogged job
	// is always observed, so a stall dump is never empty.
	WallLimit time.Duration
	// Impair, when non-nil, runs after the topology is built and the
	// flow's controller set, and before the flow starts: the one place a
	// cell attaches anything to its simulation. Chaos attaches impairment
	// stages and receiver fault modes there; the trace figures and the
	// public API attach a trace to the sender, the public API's observed
	// runs keep the flight recorder, and Fig. 9 reads the controller and
	// installs a stop predicate (Sim.StopWhen) that watches for
	// slow-start exit.
	Impair func(env ChaosEnv)
	// Domains is retired: parallel event domains were removed (one
	// simulation is single-threaded; parallelism lives in Map). The
	// field survives only because the frozen bench/ module reads it;
	// Download panics on a value > 1 rather than silently ignoring it.
	Domains int
}

// domainsRemoved is the refusal both Download and RunFleetShard give a
// job that still asks for the retired Domains split.
const domainsRemoved = "Domains > 1 is no longer supported: parallel event domains were removed, one simulation runs on one simulator (use runner.Map workers for parallelism)"

// ChaosEnv is what an Impair hook gets to work with: the simulation,
// the built path, the flow about to start, the scenario's RNG, and the
// derived seed so hooks can build private RNG streams that stay
// decoupled from the scenario's own draws. Sim, Path and Flow belong to
// the worker's Scratch and are valid only while the cell runs.
type ChaosEnv struct {
	Sim  *netsim.Simulator
	Path *netsim.Path
	Flow *tcp.Flow
	RNG  *rand.Rand
	Seed int64
	// Rec is the flow's flight recorder and Registry the one it records
	// into, with every link's counters: nil unless the job is observed or
	// watchdogged. The registry is the job's own and stays readable after
	// the run; a result does not carry it, so a batch of observed results
	// does not keep a ring of events per cell alive.
	Rec      *obs.FlowRecorder
	Registry *obs.Registry
}

func (j Job) describe() string {
	return fmt.Sprintf("%s %s size=%d iter=%d", j.Scenario.Name(), j.Algo, j.Size, j.Iter)
}

// DownloadResult captures one file download.
type DownloadResult struct {
	Algo        Algo
	Size        int64
	FCT         time.Duration // receiver-side (paper's wget-style FCT)
	Delivered   int64
	Segments    int
	Retrans     int
	RTOs        int
	Drops       int     // bottleneck + last-hop drops (congestion + erasures)
	LossRate    float64 // drops / data packets offered to the last hop
	PeakQueue   int     // max bottleneck queue occupancy (bytes)
	MaxG        int     // SUSS only
	AccelRounds int     // SUSS only
	Completed   bool
	// Ledger is the cross-layer loss accounting (nil unless
	// Job.Observe was set).
	Ledger *obs.LossLedger
	// FlowErr is the transport's terminal error (tcp.ErrRetransLimit
	// when the flow gave up on a dead path); nil for healthy flows.
	FlowErr error
	// Stall is non-nil when the watchdog killed the simulation.
	Stall *StallError
}

// Verdict is the download's error: the watchdog's stall, else the
// transport's terminal error, else ErrIncomplete for a flow that did
// not finish; nil for a completed download.
func (r DownloadResult) Verdict() error {
	switch {
	case r.Stall != nil:
		return r.Stall
	case r.FlowErr != nil:
		return r.FlowErr
	case !r.Completed:
		return ErrIncomplete
	}
	return nil
}

// recorderAttacher is implemented by every congestion controller that
// can emit into the flight recorder.
type recorderAttacher interface {
	AttachRecorder(*obs.FlowRecorder)
}

// Result pairs a job with its measurement. Err is non-nil when the
// flow did not complete (wrapping ErrIncomplete), when the simulation
// panicked (*PanicError), or when the batch was cancelled; the
// embedded DownloadResult still carries whatever was measured.
type Result struct {
	Job Job
	DownloadResult
	Err error
}

// Download executes one job synchronously on an engine of its own: the
// one-shot form of Scratch.Download.
func Download(j Job) DownloadResult { return new(Scratch).Download(j) }

// Download executes one job synchronously on the scratch's engine. It
// is the single-simulation primitive all experiment sweeps reduce to.
func (scr *Scratch) Download(j Job) DownloadResult {
	if j.Domains > 1 {
		panic("runner: " + domainsRemoved)
	}
	if j.Backend != "" && j.Backend != "sim" {
		panic("runner: unknown backend " + j.Backend)
	}
	simRuns.Add(1)
	sc := j.Scenario
	sc.Seed = sc.Seed*1000003 + int64(j.Iter)*7919 + 1
	sim := scr.engine()
	spec, rng := sc.Spec()
	p := scr.pathFor(spec)
	cfg := tcp.DefaultConfig()
	if j.Transport != nil {
		cfg = *j.Transport
	}
	f, ctrl := scr.flow(0, j.Algo, j.SussOpt, cfg, 1, p.Sender, scr.pathMux[0], p.Receiver, scr.pathMux[1], j.Size)
	var (
		reg *obs.Registry
		fr  *obs.FlowRecorder
	)
	if j.Observe || j.WallLimit > 0 {
		reg = obs.NewRegistry(0)
		fr = reg.Flow(1)
		f.Sender.AttachRecorder(fr)
		f.Receiver.AttachRecorder(fr)
		if a, ok := ctrl.(recorderAttacher); ok {
			a.AttachRecorder(fr)
		}
		// Every forward link: the ledger needs all data-path drops, not
		// just the last hop's.
		for i, l := range p.Fwd {
			l.AttachRecorder(reg.Link(fmt.Sprintf("fwd%d/%s", i, l.Name())))
		}
	}
	if j.Impair != nil {
		j.Impair(ChaosEnv{Sim: sim, Path: p, Flow: f, RNG: rng, Seed: sc.Seed, Rec: fr, Registry: reg})
	}
	f.StartAt(sim, 0)
	horizon := j.Horizon
	if horizon <= 0 {
		horizon = DefaultHorizon
	}
	// Only a StallError reads the description; an unguarded cell does not
	// pay to format it.
	desc := ""
	if j.WallLimit > 0 {
		desc = j.describe()
	}
	var stall *StallError
	if _, err := RunGuarded(sim, reg, horizon, j.WallLimit, desc); err != nil {
		stall = err.(*StallError)
	}

	last := p.Fwd[len(p.Fwd)-1]
	lst := last.Stats()
	res := DownloadResult{
		Algo:      j.Algo,
		Size:      j.Size,
		FCT:       f.FCT(),
		Delivered: f.Sender.Delivered(),
		Segments:  f.Sender.Stats().SegmentsSent,
		Retrans:   f.Sender.Stats().Retransmissions,
		RTOs:      f.Sender.Stats().RTOs,
		Drops:     lst.DroppedPackets + lst.ErasedPackets,
		PeakQueue: lst.MaxQueueBytes,
		Completed: f.Done(),
		FlowErr:   f.Sender.Err(),
		Stall:     stall,
	}
	offered := lst.EnqueuedPackets + lst.DroppedPackets
	if offered > 0 {
		res.LossRate = float64(res.Drops) / float64(offered)
	}
	if s, ok := ctrl.(*core.Suss); ok {
		res.MaxG = s.Stats().MaxG
		res.AccelRounds = s.Stats().AcceleratedRounds
	}
	if reg != nil {
		links := reg.Links()
		lcs := make([]*obs.LinkCounters, len(links))
		for i, l := range links {
			lcs[i] = &l.C
		}
		led := obs.MakeLedger(&reg.Flow(1).C, lcs...)
		res.Ledger = &led
	}
	return res
}

// Run executes a job batch on the worker pool and returns results in
// job order. One pathological job fails loudly as an error-carrying
// result without aborting the rest of the sweep.
func Run(ctx context.Context, jobs []Job, opt Options) []Result {
	outs := Map(ctx, jobs, func(ctx context.Context, _ int, j Job) (DownloadResult, error) {
		r := ScratchFrom(ctx).Download(j)
		if err := r.Verdict(); err != nil {
			return r, fmt.Errorf("%s: %w", j.describe(), err)
		}
		return r, nil
	}, opt)
	res := make([]Result, len(jobs))
	for i := range outs {
		res[i] = Result{Job: jobs[i], DownloadResult: outs[i].Value, Err: outs[i].Err}
	}
	return res
}
