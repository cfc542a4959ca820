package suss

import (
	"fmt"
	"io"
	"time"

	"suss/internal/core"
	"suss/internal/experiments"
	"suss/internal/netem"
	"suss/internal/obs"
	"suss/internal/runner"
	"suss/internal/scenarios"
	"suss/internal/trace"
)

// Algorithm selects the congestion controller for a flow. It is the
// simulator's own catalog, re-exported so the public API cannot drift
// from what the runner builds.
type Algorithm = runner.Algo

const (
	// CUBIC is Linux-default CUBIC with HyStart (the paper's "SUSS
	// off" baseline).
	CUBIC = runner.Cubic
	// CUBICWithSUSS enables the SUSS slow-start accelerator.
	CUBICWithSUSS = runner.Suss
	// BBRv1 is the model-based baseline.
	BBRv1 = runner.BBR
	// BBRv2Lite is BBRv1 plus a loss-bounded inflight ceiling.
	BBRv2Lite = runner.BBR2
	// Reno is classic AIMD (RFC 5681) without any slow-start
	// acceleration — the yardstick baseline.
	Reno = runner.Reno
)

// LinkType names a last-hop technology for PathConfig.
type LinkType string

// Last-hop technologies, matching the paper's client links.
const (
	Wired LinkType = "wired"
	WiFi  LinkType = "wifi"
	LTE4G LinkType = "4g"
	NR5G  LinkType = "5g"
)

func (lt LinkType) netem() (netem.LinkType, error) {
	switch lt {
	case "", Wired:
		return netem.Wired, nil
	case WiFi:
		return netem.WiFi, nil
	case LTE4G:
		return netem.LTE4G, nil
	case NR5G:
		return netem.NR5G, nil
	default:
		return 0, fmt.Errorf("suss: unknown link type %q", lt)
	}
}

// PathConfig describes a single sender→receiver path: a fast core and
// a last-hop bottleneck with the impairments of the chosen link type.
type PathConfig struct {
	// RateMbps is the last hop's mean downstream rate in Mbit/s.
	RateMbps float64
	// RTT is the propagation round-trip time.
	RTT time.Duration
	// BufferBDP sizes the bottleneck buffer in bandwidth-delay
	// products (0 picks the link type's default).
	BufferBDP float64
	// Link selects the last-hop technology (default Wired).
	Link LinkType
	// Seed makes stochastic impairments reproducible.
	Seed int64

	// Kmax overrides SUSS's growth-exponent bound when the algorithm
	// is CUBICWithSUSS (0 = the paper's default of 1, i.e. G ≤ 4).
	Kmax int
}

func (cfg PathConfig) scenario() (scenarios.Scenario, error) {
	lt, err := cfg.Link.netem()
	if err != nil {
		return scenarios.Scenario{}, err
	}
	if cfg.RateMbps <= 0 {
		return scenarios.Scenario{}, fmt.Errorf("suss: RateMbps must be positive, got %v", cfg.RateMbps)
	}
	if cfg.RTT <= 0 {
		return scenarios.Scenario{}, fmt.Errorf("suss: RTT must be positive, got %v", cfg.RTT)
	}
	prof := netem.DefaultProfile(lt, cfg.RateMbps*1e6)
	if cfg.BufferBDP > 0 {
		prof.BufferBDPs = cfg.BufferBDP
	}
	return scenarios.Scenario{
		Link:     lt,
		RTT:      cfg.RTT,
		LastHop:  prof,
		CoreRate: 1e9,
		Seed:     cfg.Seed,
	}, nil
}

// Result summarizes one transfer.
type Result struct {
	// FCT is the receiver-side flow completion time.
	FCT time.Duration
	// DeliveredBytes should equal the requested size.
	DeliveredBytes int64
	// Retransmissions and RTOs count recovery activity.
	Retransmissions int
	RTOs            int
	// LossRate is drops at the bottleneck over packets offered to it.
	LossRate float64
	// MaxG is the largest SUSS growth factor used (0 unless
	// CUBICWithSUSS).
	MaxG int
	// AcceleratedRounds counts slow-start rounds with G > 2.
	AcceleratedRounds int
}

// TracePoint is one sample of a flow's transport state.
type TracePoint = trace.Sample

// FlightRecorder exposes what an observed run recorded: the
// structured per-flow event log (ring-buffered; oldest events are
// overwritten once the buffer fills) and the per-flow / per-link
// counter registry. Exports are read-only views; the recorder is
// detached from the simulation by the time callers see it.
type FlightRecorder struct {
	reg *obs.Registry
}

// WriteEventsJSONL writes the retained events as JSON Lines.
func (f *FlightRecorder) WriteEventsJSONL(w io.Writer) error {
	return obs.WriteEventsJSONL(w, f.reg.Events())
}

// WriteEventsCSV writes the retained events as CSV.
func (f *FlightRecorder) WriteEventsCSV(w io.Writer) error {
	return obs.WriteEventsCSV(w, f.reg.Events())
}

// WriteTimeline writes a human-readable per-event narrative.
func (f *FlightRecorder) WriteTimeline(w io.Writer) error {
	return obs.WriteTimeline(w, f.reg.Events())
}

// WriteCounters dumps every flow and link counter block.
func (f *FlightRecorder) WriteCounters(w io.Writer) error {
	return obs.WriteCounters(w, f.reg)
}

// Run transfers size bytes over the configured path with the given
// algorithm and returns the outcome.
func Run(cfg PathConfig, algo Algorithm, size int64) (Result, error) {
	res, _, _, err := run(cfg, algo, size, false, false, 0)
	return res, err
}

// RunTrace is Run plus the cwnd/RTT/delivered time series, sampled at
// most once per the given interval (0 = every ACK).
func RunTrace(cfg PathConfig, algo Algorithm, size int64, every time.Duration) (Result, []TracePoint, error) {
	res, pts, _, err := run(cfg, algo, size, false, true, every)
	return res, pts, err
}

// RunObserved is Run with a flight recorder attached to the sender,
// receiver, congestion controller and every forward link; the
// returned recorder holds the run's event log and counters.
func RunObserved(cfg PathConfig, algo Algorithm, size int64) (Result, *FlightRecorder, error) {
	res, _, fr, err := run(cfg, algo, size, true, false, 0)
	return res, fr, err
}

// RunTraceObserved combines RunTrace and RunObserved in one simulation.
func RunTraceObserved(cfg PathConfig, algo Algorithm, size int64, every time.Duration) (Result, []TracePoint, *FlightRecorder, error) {
	return run(cfg, algo, size, true, true, every)
}

func run(cfg PathConfig, algo Algorithm, size int64, observe, traced bool, every time.Duration) (Result, []TracePoint, *FlightRecorder, error) {
	sc, err := cfg.scenario()
	if err != nil {
		return Result{}, nil, nil, err
	}
	j := runner.Job{Scenario: sc, Algo: algo, Size: size, Observe: observe}
	if algo == CUBICWithSUSS && cfg.Kmax > 0 {
		opt := core.DefaultOptions()
		opt.Kmax = cfg.Kmax
		j.SussOpt = &opt
	}
	return download(j, traced, every)
}

// download runs j to the 30-minute horizon every public run shares;
// traced attaches a trace sampled at most once per every (0 = every
// ACK).
func download(j runner.Job, traced bool, every time.Duration) (Result, []TracePoint, *FlightRecorder, error) {
	if j.Size <= 0 {
		return Result{}, nil, nil, fmt.Errorf("suss: size must be positive, got %d", j.Size)
	}
	j.Horizon = 30 * time.Minute
	var (
		rec *FlightRecorder
		tr  *trace.FlowTrace
	)
	j.Impair = func(env runner.ChaosEnv) {
		if env.Registry != nil {
			rec = &FlightRecorder{reg: env.Registry}
		}
		if traced {
			tr = trace.Attach(env.Flow.Sender, every)
		}
	}
	r := runner.Download(j)
	if !r.Completed {
		return Result{}, nil, rec, fmt.Errorf("suss: transfer did not complete within the simulation horizon (delivered %d of %d bytes)",
			r.Delivered, j.Size)
	}
	res := Result{
		FCT:               r.FCT,
		DeliveredBytes:    r.Delivered,
		Retransmissions:   r.Retrans,
		RTOs:              r.RTOs,
		LossRate:          r.LossRate,
		MaxG:              r.MaxG,
		AcceleratedRounds: r.AccelRounds,
	}
	if tr == nil {
		return res, nil, rec, nil
	}
	return res, tr.Samples, rec, nil
}

// InternetScenario names one cell of the paper's 7-server × 4-link
// matrix, e.g. "google-tokyo/4g". See Scenarios for the full list.
type InternetScenario string

// Scenarios lists the paper's 28 internet-testbed scenarios.
func Scenarios() []InternetScenario {
	var out []InternetScenario
	for _, sc := range scenarios.All(1) {
		out = append(out, InternetScenario(sc.Name()))
	}
	return out
}

// RunScenario transfers size bytes over a named internet scenario.
func RunScenario(name InternetScenario, algo Algorithm, size int64, seed int64) (Result, error) {
	for _, sc := range scenarios.All(seed) {
		if sc.Name() == string(name) {
			res, _, _, err := download(runner.Job{Scenario: sc, Algo: algo, Size: size}, false, 0)
			return res, err
		}
	}
	return Result{}, fmt.Errorf("suss: unknown scenario %q (see Scenarios())", name)
}

// CompareFCT runs the same transfer under two algorithms and returns
// both results plus the relative FCT improvement of b over a.
func CompareFCT(cfg PathConfig, a, b Algorithm, size int64) (ra, rb Result, improvement float64, err error) {
	ra, err = Run(cfg, a, size)
	if err != nil {
		return
	}
	rb, err = Run(cfg, b, size)
	if err != nil {
		return
	}
	improvement = experiments.Improvement(ra.FCT.Seconds(), rb.FCT.Seconds())
	return
}
