package cc

import "time"

// WindowedMax tracks the maximum of a series over a sliding window of
// "rounds" (or any monotonic tick), keeping the best three estimates
// the way BBR's windowed max filter (and quic-go's) does, so the
// estimate degrades gracefully as old samples age out.
type WindowedMax struct {
	window uint64 // length in ticks
	best   [3]maxSample
}

type maxSample struct {
	v float64
	t uint64
}

// MakeWindowedMax returns an empty filter with the given window length
// in ticks (e.g. 10 round trips for BBR's bandwidth filter).
func MakeWindowedMax(windowTicks uint64) WindowedMax {
	return WindowedMax{window: windowTicks}
}

// Update folds in sample v at tick t (t must be non-decreasing).
func (w *WindowedMax) Update(v float64, t uint64) {
	if w.best[0].v == 0 || v >= w.best[0].v || t-w.best[2].t > w.window {
		w.best[0] = maxSample{v, t}
		w.best[1] = w.best[0]
		w.best[2] = w.best[0]
		return
	}
	if v >= w.best[1].v {
		w.best[1] = maxSample{v, t}
		w.best[2] = w.best[1]
	} else if v >= w.best[2].v {
		w.best[2] = maxSample{v, t}
	}
	// Expire stale estimates.
	if t-w.best[0].t > w.window {
		w.best[0] = w.best[1]
		w.best[1] = w.best[2]
		w.best[2] = maxSample{v, t}
		if t-w.best[0].t > w.window {
			w.best[0] = w.best[1]
			w.best[1] = w.best[2]
		}
		return
	}
	if w.best[1].t == w.best[0].t && t-w.best[0].t > w.window/4 {
		w.best[1] = maxSample{v, t}
		w.best[2] = w.best[1]
		return
	}
	if w.best[2].t == w.best[1].t && t-w.best[1].t > w.window/2 {
		w.best[2] = maxSample{v, t}
	}
}

// Get returns the current windowed maximum (0 before any sample).
func (w *WindowedMax) Get() float64 { return w.best[0].v }

// WindowedMinRTT tracks the minimum RTT over a sliding wall-clock
// window (BBR uses 10 s).
type WindowedMinRTT struct {
	window time.Duration
	min    time.Duration
	setAt  time.Duration
}

// MakeWindowedMinRTT returns an empty filter over the given window.
func MakeWindowedMinRTT(window time.Duration) WindowedMinRTT {
	return WindowedMinRTT{window: window}
}

// Update folds in a sample at virtual time now.
func (w *WindowedMinRTT) Update(sample, now time.Duration) {
	if sample <= 0 {
		return
	}
	if w.min == 0 || sample <= w.min || now-w.setAt > w.window {
		w.min = sample
		w.setAt = now
	}
}

// Get returns the windowed minimum (0 before any sample).
func (w *WindowedMinRTT) Get() time.Duration { return w.min }

// Expired reports whether the current estimate is older than the
// window at time now.
func (w *WindowedMinRTT) Expired(now time.Duration) bool {
	return w.min != 0 && now-w.setAt > w.window
}
