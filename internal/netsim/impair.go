package netsim

import (
	"time"

	"suss/internal/obs"
)

// ImpairVerdict is one stage's judgement on a single packet about to
// propagate. Verdicts from consecutive stages are combined by the
// pipeline (see Impairments.Judge).
type ImpairVerdict struct {
	// Drop discards the packet with the given Cause (an erasure-family
	// obs.DropCause: DropErasure, DropCorrupt or DropOutage). A drop
	// short-circuits the pipeline: later stages never see the packet.
	Drop  bool
	Cause obs.DropCause

	// ExtraDelay adds to the packet's propagation delay. Negative
	// values are allowed (RTT steps back down); the link clamps the
	// total delay at zero.
	ExtraDelay time.Duration

	// OutOfBand exempts this delivery from the link's FIFO arrival
	// clamp and keeps it from advancing the clamp watermark —
	// reordering stages set it so a delayed packet genuinely arrives
	// behind its successors.
	OutOfBand bool

	// Duplicate injects a second copy of the packet, propagated
	// out-of-band after ExtraDelay+DupExtraDelay.
	Duplicate     bool
	DupExtraDelay time.Duration
}

// ImpairStage judges packets leaving a link's serializer, before
// propagation. Implementations live in internal/netem; they must be
// deterministic given their own seeded RNG and the packet sequence.
type ImpairStage interface {
	// Judge returns the stage's verdict for pkt at virtual time now.
	// The packet is read-only: stages must not mutate or retain it.
	Judge(now time.Duration, pkt *Packet) ImpairVerdict
}

// Impairments is the ordered pipeline of stages a link judges every
// packet through after serialization: its configured stages
// (LinkConfig.Impair; a last hop's loss, then jitter), then attached
// ones (Link.AttachImpairments). The combined verdict is:
//
//   - the first Drop wins and stops the pipeline (a dropped packet
//     cannot be further delayed or duplicated);
//   - ExtraDelay accumulates across stages;
//   - OutOfBand and Duplicate are OR-ed;
//   - the first duplicating stage's DupExtraDelay is kept.
type Impairments []ImpairStage

// Judge runs the pipeline on one packet and returns the combined
// verdict. Links call it on every packet; the real-time UDP wire
// backend calls it to reuse the same stages at the frame layer.
func (im Impairments) Judge(now time.Duration, pkt *Packet) ImpairVerdict {
	var v ImpairVerdict
	for _, s := range im {
		sv := s.Judge(now, pkt)
		if sv.Drop {
			sv.ExtraDelay = 0
			sv.Duplicate = false
			return sv
		}
		v.ExtraDelay += sv.ExtraDelay
		v.OutOfBand = v.OutOfBand || sv.OutOfBand
		if sv.Duplicate && !v.Duplicate {
			v.Duplicate = true
			v.DupExtraDelay = sv.DupExtraDelay
		}
	}
	return v
}
