// Package netem provides link impairment models in the spirit of the
// Linux Traffic Control netem qdisc, which the paper uses on its local
// testbed's bottleneck router, plus stochastic bandwidth-variation
// models that stand in for the paper's real wireless last hops
// (Wi-Fi, 4G, 5G).
//
// Every per-packet model is a netsim.ImpairStage: a link applies them
// all through one netsim.Impairments pipeline, as the netem qdisc does.
//
// All randomness is drawn from caller-supplied *rand.Rand instances so
// simulations are reproducible from a seed.
package netem

import (
	"math"
	"math/rand"
	"time"

	"suss/internal/netsim"
	"suss/internal/obs"
)

// Step returns a RateFunc that switches from before to after at the
// given time — the Appendix B BtlBw step-change experiment.
func Step(before, after float64, at time.Duration) netsim.RateFunc {
	return func(now time.Duration) float64 {
		if now < at {
			return before
		}
		return after
	}
}

// VariableRate models a wireless link whose capacity wanders around a
// mean. The rate follows a mean-reverting random walk (a discretized
// Ornstein-Uhlenbeck process) sampled on a fixed update interval, and
// is clamped to [Floor, Ceil]. The walk advances lazily as the link
// asks for the rate, so it costs nothing when idle.
type VariableRate struct {
	Mean float64 // long-run average, bits/sec
	// RelStdDev is the standard deviation of the stationary
	// distribution relative to Mean (e.g. 0.3 for heavy 4G variation).
	RelStdDev float64
	// Reversion in (0,1] is the pull toward the mean per update step;
	// small values give slowly-wandering capacity.
	Reversion float64
	// Interval between rate updates (e.g. 100 ms for cellular
	// scheduling granularity).
	Interval time.Duration
	// Floor and Ceil clamp the process. Floor must be > 0.
	Floor, Ceil float64

	rng     *rand.Rand
	current float64
	nextAt  time.Duration
}

// NewVariableRate builds a model with sensible defaults filled in:
// Reversion 0.2, Interval 100 ms, Floor Mean/8, Ceil 2×Mean.
func NewVariableRate(mean, relStdDev float64, rng *rand.Rand) VariableRate {
	return VariableRate{
		Mean:      mean,
		RelStdDev: relStdDev,
		Reversion: 0.2,
		Interval:  100 * time.Millisecond,
		Floor:     mean / 8,
		Ceil:      2 * mean,
		rng:       rng,
		current:   mean,
	}
}

// Rate implements netsim.RateFunc.
func (v *VariableRate) Rate(now time.Duration) float64 {
	for now >= v.nextAt {
		// OU step: x += k(mean-x) + sigma*sqrt(2k)*N(0,1); with the
		// stationary stddev sigma = RelStdDev*Mean.
		sigma := v.RelStdDev * v.Mean
		noise := float64(v.rng.NormFloat64() * sigma * math.Sqrt(2*v.Reversion))
		v.current += float64(v.Reversion*(v.Mean-v.current)) + noise
		if v.current < v.Floor {
			v.current = v.Floor
		}
		if v.current > v.Ceil {
			v.current = v.Ceil
		}
		v.nextAt += v.Interval
	}
	return v.current
}

// corrJitter resamples a uniform [0, max) delay once per interval of
// virtual time and applies the same value to every packet inside the
// interval: packets of one burst shift together, so intra-train
// spacing (which HyStart and SUSS measure) survives, while RTT still
// varies across rounds — the behaviour of cellular/WiFi schedulers.
type corrJitter struct {
	max, interval   time.Duration
	rng             *rand.Rand
	current, nextAt time.Duration
}

// Judge implements netsim.ImpairStage.
func (j *corrJitter) Judge(now time.Duration, _ *netsim.Packet) netsim.ImpairVerdict {
	for now >= j.nextAt {
		j.current = time.Duration(j.rng.Int63n(int64(j.max)))
		j.nextAt += j.interval
	}
	return netsim.ImpairVerdict{ExtraDelay: j.current}
}

// erased is the verdict of a random wire loss.
var erased = netsim.ImpairVerdict{Drop: true, Cause: obs.DropErasure}

// Bernoulli returns a stage dropping each packet independently with
// probability p, drawing one value from rng per packet.
func Bernoulli(p float64, rng *rand.Rand) netsim.ImpairStage {
	return &bernoulli{p: p, rng: rng}
}

// bernoulli is Bernoulli's state.
type bernoulli struct {
	p   float64
	rng *rand.Rand
}

// Judge implements netsim.ImpairStage.
func (b *bernoulli) Judge(time.Duration, *netsim.Packet) netsim.ImpairVerdict {
	if b.rng.Float64() < b.p {
		return erased
	}
	return netsim.ImpairVerdict{}
}

// GilbertElliott is a two-state burst-loss model: in the Good state
// packets drop with probability LossGood (usually 0), in the Bad state
// with LossBad; transitions happen per packet with probabilities
// PGoodToBad and PBadToGood.
type GilbertElliott struct {
	PGoodToBad, PBadToGood float64
	LossGood, LossBad      float64

	rng *rand.Rand
	bad bool
}

// NewGilbertElliott builds the model in the Good state.
func NewGilbertElliott(pGB, pBG, lossGood, lossBad float64, rng *rand.Rand) *GilbertElliott {
	return &GilbertElliott{PGoodToBad: pGB, PBadToGood: pBG, LossGood: lossGood, LossBad: lossBad, rng: rng}
}

// Judge implements netsim.ImpairStage.
func (g *GilbertElliott) Judge(time.Duration, *netsim.Packet) netsim.ImpairVerdict {
	if g.bad {
		if g.rng.Float64() < g.PBadToGood {
			g.bad = false
		}
	} else {
		if g.rng.Float64() < g.PGoodToBad {
			g.bad = true
		}
	}
	p := g.LossGood
	if g.bad {
		p = g.LossBad
	}
	if g.rng.Float64() < p {
		return erased
	}
	return netsim.ImpairVerdict{}
}

// LinkType enumerates the paper's four last-hop technologies.
type LinkType int

const (
	Wired LinkType = iota
	WiFi
	LTE4G
	NR5G
)

func (t LinkType) String() string {
	switch t {
	case Wired:
		return "wired"
	case WiFi:
		return "wifi"
	case LTE4G:
		return "4g"
	case NR5G:
		return "5g"
	default:
		return "unknown"
	}
}

// Profile bundles the impairments of a last-hop link technology.
type Profile struct {
	Type LinkType
	// MeanRate is the average downstream capacity in bits/sec.
	MeanRate float64
	// RelStdDev of the capacity process (0 for wired).
	RelStdDev float64
	// JitterMax is the upper bound of uniform per-packet jitter.
	JitterMax time.Duration
	// Loss is the random (non-congestion) loss probability.
	Loss float64
	// BufferBDPs sizes the last-hop buffer in bandwidth-delay
	// products; cellular links use deep buffers (see paper App. B,
	// Obs. 2).
	BufferBDPs float64
}

// DefaultProfile returns the calibrated profile for a link type at the
// given mean rate. The variation magnitudes follow the qualitative
// ordering the paper reports in Appendix B: 4G and WiFi show the
// largest BtlBw deviations, 5G moderate, wired none.
func DefaultProfile(t LinkType, meanRate float64) Profile {
	switch t {
	case Wired:
		return Profile{Type: t, MeanRate: meanRate, BufferBDPs: 1}
	case WiFi:
		return Profile{Type: t, MeanRate: meanRate, RelStdDev: 0.30, JitterMax: 3 * time.Millisecond, Loss: 1e-5, BufferBDPs: 1.5}
	case LTE4G:
		return Profile{Type: t, MeanRate: meanRate, RelStdDev: 0.35, JitterMax: 8 * time.Millisecond, Loss: 2e-5, BufferBDPs: 3}
	case NR5G:
		return Profile{Type: t, MeanRate: meanRate, RelStdDev: 0.20, JitterMax: 2 * time.Millisecond, Loss: 1e-5, BufferBDPs: 2}
	default:
		panic("netem: unknown link type")
	}
}

// Models holds a last hop's stochastic models, the variable rate, the
// Bernoulli loss and the correlated jitter, for Profile.Apply to
// rewrite in place: the rate's method value is bound on its first use
// and the stages live in a fixed buffer, so a caller that keeps one
// Models applies profile after profile without allocating. The link
// configs Apply returns share its models, so a Models serves one link
// at a time.
type Models struct {
	rate   VariableRate
	jitter corrJitter
	loss   bernoulli

	rateFn netsim.RateFunc
	stages [2]netsim.ImpairStage
}

// Apply converts the profile into a netsim.LinkConfig for the last-hop
// link, with its models reset in m to draw from rng. oneWayDelay is the
// link's propagation delay; the drop-tail buffer is sized BufferBDPs ×
// MeanRate × (2×pathOneWayDelay). The pipeline is loss, then jitter:
// a dropped packet draws no jitter. A model the profile does not use is
// left out; a profile with neither leaves Impair nil.
func (p Profile) Apply(m *Models, name string, oneWayDelay, pathRTT time.Duration, rng *rand.Rand) netsim.LinkConfig {
	cfg := netsim.LinkConfig{
		Name:  name,
		Delay: oneWayDelay,
	}
	if p.RelStdDev > 0 {
		m.rate = NewVariableRate(p.MeanRate, p.RelStdDev, rng)
		if m.rateFn == nil {
			m.rateFn = m.rate.Rate
		}
		cfg.RateModel = m.rateFn
	} else {
		cfg.Rate = p.MeanRate
	}
	im := m.stages[:0]
	if p.Loss > 0 {
		m.loss = bernoulli{p: p.Loss, rng: rng}
		im = append(im, &m.loss)
	}
	if p.JitterMax > 0 {
		m.jitter = corrJitter{max: p.JitterMax, interval: 20 * time.Millisecond, rng: rng}
		im = append(im, &m.jitter)
	}
	if len(im) > 0 {
		cfg.Impair = im
	}
	bdp := p.MeanRate / 8 * pathRTT.Seconds()
	buf := int(p.BufferBDPs * bdp)
	if buf < 64<<10 {
		buf = 64 << 10
	}
	cfg.QueueBytes = buf
	return cfg
}
