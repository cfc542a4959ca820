// Package tcp implements the userspace transport the congestion
// controllers plug into: MSS-sized segmentation, cumulative ACKs with
// SACK, RFC 6675-style loss detection, fast retransmit, RTO with
// exponential backoff, RTT estimation (RFC 6298), optional pacing, and
// the cc.Controller hook points.
//
// It is the stand-in for the Linux kernel TCP stack the paper patches:
// everything SUSS observes (ACK arrival times, RTT samples, sequence
// progress) and controls (cwnd, packet release timing) crosses this
// package's Controller interface exactly as it crosses
// tcp_congestion_ops in the kernel.
package tcp

import "time"

// Config carries transport constants. The zero value is not usable;
// call DefaultConfig and override what you need.
type Config struct {
	// MSS is the maximum segment payload in bytes.
	MSS int
	// HeaderBytes is per-segment wire overhead (IP+TCP headers).
	HeaderBytes int
	// AckBytes is the wire size of a pure ACK.
	AckBytes int
	// IW is the initial congestion window in segments (RFC 6928: 10).
	IW int
	// AckEvery makes the receiver acknowledge every n-th in-order
	// packet (1 = ack every packet, Linux quickack; 2 = classic
	// delayed ACK).
	AckEvery int
	// DelAckTimeout bounds how long an ACK may be withheld when
	// AckEvery > 1.
	DelAckTimeout time.Duration
	// MinRTO floors the retransmission timeout (Linux: 200 ms).
	MinRTO time.Duration
	// MaxRTO caps the backed-off retransmission timeout. The default
	// is 8 s rather than RFC 6298's 60 s: on FCT-scale experiments a
	// minute-long backoff turns one unlucky drop into a multi-minute
	// artifact that no real interactive transfer would tolerate.
	MaxRTO time.Duration
	// DupThresh is the reordering threshold in segments for marking a
	// hole lost (RFC 6675: 3).
	DupThresh int
	// FRTO enables Eifel-style spurious-RTO detection: when an ACK
	// after a timeout echoes a timestamp from before the timeout and
	// advances the window, the RTO was spurious — the controller's
	// window collapse and the RTO backoff are undone. Off by default:
	// genuine tail-loss RTOs in the paper-reproduction experiments
	// occasionally prove spurious too, and undoing them changes the
	// pinned figure outputs. Chaos/robustness runs turn it on.
	FRTO bool
	// MaxConsecRTOs caps consecutive RTO fires without forward
	// progress; exceeding it fails the flow with ErrRetransLimit
	// instead of retransmitting forever into a dead path. Zero means
	// unlimited.
	MaxConsecRTOs int
	// AdaptReoWnd grows the RACK-lite reordering window each time a
	// loss marking is contradicted (spurious retransmit), trading
	// recovery latency for robustness on reordering paths. Off by
	// default: the default experiments pin byte-identical outputs.
	AdaptReoWnd bool
}

// DefaultConfig returns Linux-like transport constants: 1448-byte MSS
// (1500-byte frames), IW10, ack-every-packet, 200 ms minimum RTO.
func DefaultConfig() Config {
	return Config{
		MSS:           1448,
		HeaderBytes:   52,
		AckBytes:      60,
		IW:            10,
		AckEvery:      1,
		DelAckTimeout: 40 * time.Millisecond,
		MinRTO:        200 * time.Millisecond,
		MaxRTO:        8 * time.Second,
		DupThresh:     3,
		FRTO:          false,
		MaxConsecRTOs: 12,
	}
}
