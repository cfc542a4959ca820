// Package trace records per-flow time series — cwnd, smoothed RTT,
// delivered bytes — the way the paper's kernel-log instrumentation
// does, for the cwnd/RTT/delivery plots (Figs. 1, 9, 10, 16).
//
// Samplers copy, never retain: every observation is captured as plain
// scalars at callback time. Network packets are pool-owned and
// recycled the moment their consumer returns, so a trace (or any
// other observer) must never hold a *netsim.Packet past the callback.
package trace

import (
	"fmt"
	"io"
	"time"

	"suss/internal/tcp"
)

// Sample is one observation of a flow's transport state.
type Sample struct {
	T         time.Duration
	CwndBytes int64
	SRTT      time.Duration
	Delivered int64
}

// FlowTrace collects samples at a bounded rate.
type FlowTrace struct {
	Samples []Sample

	every time.Duration
	last  time.Duration
	seen  bool
}

// Attach hooks a trace onto a sender, recording at most one sample per
// `every` of virtual time (zero records every ACK). A previously
// installed OnAckTrace hook keeps firing: observers chain rather than
// silently replacing each other, in installation order.
func Attach(s *tcp.Sender, every time.Duration) *FlowTrace {
	tr := &FlowTrace{every: every}
	prev := s.OnAckTrace
	s.OnAckTrace = func(now time.Duration, cwnd int64, srtt time.Duration, delivered int64) {
		if prev != nil {
			prev(now, cwnd, srtt, delivered)
		}
		if tr.seen && every > 0 && now-tr.last < every {
			return
		}
		tr.seen = true
		tr.last = now
		tr.Samples = append(tr.Samples, Sample{T: now, CwndBytes: cwnd, SRTT: srtt, Delivered: delivered})
	}
	return tr
}

// At returns the last sample at or before t (zero Sample if none).
func (tr *FlowTrace) At(t time.Duration) Sample {
	var out Sample
	for _, s := range tr.Samples {
		if s.T > t {
			break
		}
		out = s
	}
	return out
}

// TimeToDeliver returns when the trace first shows at least n bytes
// delivered, and whether it ever did.
func (tr *FlowTrace) TimeToDeliver(n int64) (time.Duration, bool) {
	for _, s := range tr.Samples {
		if s.Delivered >= n {
			return s.T, true
		}
	}
	return 0, false
}

// TimeToCwnd returns when cwnd first reached w bytes.
func (tr *FlowTrace) TimeToCwnd(w int64) (time.Duration, bool) {
	for _, s := range tr.Samples {
		if s.CwndBytes >= w {
			return s.T, true
		}
	}
	return 0, false
}

// WriteCSV emits "t_ms,cwnd_bytes,srtt_ms,delivered_bytes" rows.
func (tr *FlowTrace) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "t_ms,cwnd_bytes,srtt_ms,delivered_bytes\n"); err != nil {
		return err
	}
	for _, s := range tr.Samples {
		if _, err := fmt.Fprintf(w, "%.3f,%d,%.3f,%d\n",
			float64(s.T)/1e6, s.CwndBytes, float64(s.SRTT)/1e6, s.Delivered); err != nil {
			return err
		}
	}
	return nil
}
