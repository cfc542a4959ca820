package netem

import (
	"math/rand"
	"time"

	"suss/internal/netsim"
	"suss/internal/obs"
)

// This file holds the stages a hook attaches to a link's pipeline,
// after its configured ones. Every stochastic stage draws from its own
// caller-supplied *rand.Rand, so a pipeline's schedule is a pure
// function of its seeds and the packet sequence — and a stage with
// probability zero consumes draws from its private stream only,
// leaving every other stage (and the unimpaired simulation) untouched.

// Reorder delays a random subset of packets by an extra out-of-band
// interval, so they genuinely arrive behind their successors — the
// delay-based reordering model of the netem qdisc.
type Reorder struct {
	// Prob is the per-packet probability of being delayed.
	Prob float64
	// MinExtra/MaxExtra bound the extra delay, drawn uniformly from
	// [MinExtra, MaxExtra).
	MinExtra, MaxExtra time.Duration

	rng *rand.Rand
}

// NewReorder builds a reordering stage with its own RNG.
func NewReorder(prob float64, minExtra, maxExtra time.Duration, rng *rand.Rand) *Reorder {
	return &Reorder{Prob: prob, MinExtra: minExtra, MaxExtra: maxExtra, rng: rng}
}

// Judge implements netsim.ImpairStage.
func (r *Reorder) Judge(now time.Duration, pkt *netsim.Packet) netsim.ImpairVerdict {
	if r.rng.Float64() >= r.Prob {
		return netsim.ImpairVerdict{}
	}
	extra := r.MinExtra
	if span := r.MaxExtra - r.MinExtra; span > 0 {
		extra += time.Duration(r.rng.Int63n(int64(span)))
	}
	return netsim.ImpairVerdict{ExtraDelay: extra, OutOfBand: true}
}

// Duplicate injects an extra copy of a random subset of packets,
// arriving a fixed interval after the original.
type Duplicate struct {
	// Prob is the per-packet duplication probability.
	Prob float64
	// Extra is how far behind the original the copy arrives.
	Extra time.Duration

	rng *rand.Rand
}

// NewDuplicate builds a duplication stage with its own RNG.
func NewDuplicate(prob float64, extra time.Duration, rng *rand.Rand) *Duplicate {
	return &Duplicate{Prob: prob, Extra: extra, rng: rng}
}

// Judge implements netsim.ImpairStage.
func (d *Duplicate) Judge(now time.Duration, pkt *netsim.Packet) netsim.ImpairVerdict {
	if d.rng.Float64() >= d.Prob {
		return netsim.ImpairVerdict{}
	}
	return netsim.ImpairVerdict{Duplicate: true, DupExtraDelay: d.Extra}
}

// Corrupt models bit corruption. A corrupted packet fails its
// checksum and is discarded by the receiving NIC, so at this
// abstraction level corruption is an erasure — but it keeps its own
// obs.DropCause so the loss ledger can tell it from wire loss.
type Corrupt struct {
	// Prob is the per-packet corruption probability.
	Prob float64

	rng *rand.Rand
}

// NewCorrupt builds a corruption stage with its own RNG.
func NewCorrupt(prob float64, rng *rand.Rand) *Corrupt {
	return &Corrupt{Prob: prob, rng: rng}
}

// Judge implements netsim.ImpairStage.
func (c *Corrupt) Judge(now time.Duration, pkt *netsim.Packet) netsim.ImpairVerdict {
	if c.rng.Float64() < c.Prob {
		return netsim.ImpairVerdict{Drop: true, Cause: obs.DropCorrupt}
	}
	return netsim.ImpairVerdict{}
}

// Window is a half-open interval [Start, End) of virtual time.
type Window struct {
	Start, End time.Duration
}

// Outage drops every packet inside its scheduled windows — a
// deterministic model of a link going dark (handover blackout,
// maintenance, cable pull).
type Outage struct {
	// Windows are the dark intervals, in ascending order.
	Windows []Window
}

// Judge implements netsim.ImpairStage.
func (o *Outage) Judge(now time.Duration, pkt *netsim.Packet) netsim.ImpairVerdict {
	for _, w := range o.Windows {
		if now >= w.Start && now < w.End {
			return netsim.ImpairVerdict{Drop: true, Cause: obs.DropOutage}
		}
		if now < w.Start {
			break
		}
	}
	return netsim.ImpairVerdict{}
}

// Flaps models a link alternating between up and down states with
// exponentially-distributed durations — random short blackouts the
// way a flaky radio produces them. State advances lazily as packets
// are judged, from the stage's private RNG only.
type Flaps struct {
	// MeanUp / MeanDown are the mean durations of the two states.
	MeanUp, MeanDown time.Duration

	rng    *rand.Rand
	down   bool
	nextAt time.Duration
}

// NewFlaps builds a flapping stage with its own RNG. The link starts
// up (the first toggle at t=0 flips the initial down state to up and
// draws the first up duration).
func NewFlaps(meanUp, meanDown time.Duration, rng *rand.Rand) *Flaps {
	return &Flaps{MeanUp: meanUp, MeanDown: meanDown, rng: rng, down: true}
}

// Judge implements netsim.ImpairStage.
func (f *Flaps) Judge(now time.Duration, pkt *netsim.Packet) netsim.ImpairVerdict {
	for now >= f.nextAt {
		f.down = !f.down
		mean := f.MeanUp
		if f.down {
			mean = f.MeanDown
		}
		f.nextAt += time.Duration(f.rng.ExpFloat64() * float64(mean))
	}
	if f.down {
		return netsim.ImpairVerdict{Drop: true, Cause: obs.DropOutage}
	}
	return netsim.ImpairVerdict{}
}

// DelayStep is one scheduled change in path delay.
type DelayStep struct {
	// At is when the change takes effect.
	At time.Duration
	// Delta is added to the path delay from At on (may be negative).
	Delta time.Duration
}

// RTTStep models abrupt route changes: the cumulative sum of all steps
// at or before now is added to every packet's propagation delay.
// Increases push arrivals out; decreases drain naturally through the
// link's FIFO clamp (in-band, so no spurious reordering).
type RTTStep struct {
	// Steps are the scheduled deltas, in ascending At order.
	Steps []DelayStep
}

// Judge implements netsim.ImpairStage.
func (r *RTTStep) Judge(now time.Duration, pkt *netsim.Packet) netsim.ImpairVerdict {
	var delta time.Duration
	for _, s := range r.Steps {
		if s.At > now {
			break
		}
		delta += s.Delta
	}
	return netsim.ImpairVerdict{ExtraDelay: delta}
}
