package cubic

import (
	"time"

	"suss/internal/cc"
	"suss/internal/obs"
)

// hystartPP implements HyStart++ (RFC 9406), the slow-start exit
// heuristic deployed in Windows and newer Linux kernels and cited by
// the paper as the modern alternative to HyStart. Instead of exiting
// slow start outright on a delay signal, it enters Conservative Slow
// Start (CSS) — exponential growth slowed by 4× — and either confirms
// the signal after five CSS rounds (exit to congestion avoidance) or
// detects it was spurious (RTT fell back below the baseline) and
// resumes full slow start. The per-round RTT minima are the host's
// Rounds.PrevMin and RoundMin.
type hystartPP struct {
	c *Cubic

	// CSS state.
	inCSS          bool
	cssBaselineRTT time.Duration
	cssRounds      int
}

// RFC 9406 constants; the delay threshold is delayThresh, as HyStart's.
const (
	hsppMinSamples      = 8
	hsppCSSGrowthDiv    = 4
	hsppCSSRounds       = 5
	hsppMinCwndSegments = 16 // conservative: same low window as HyStart
)

// OnSlowStartAck implements cc.SlowStart: the (divided) growth, then
// the CSS state machine.
func (h *hystartPP) OnSlowStartAck(ev cc.AckEvent, ackedSegs float64, newRound bool) {
	c := h.c
	c.cwnd += ackedSegs / h.growthDivisor()
	if newRound && h.inCSS {
		h.cssRounds++
	}
	if h.sample(ev.RTT, c.cwnd, &c.rounds) {
		c.ExitSlowStart(ev.Now, obs.ExitCSS)
	}
}

// sample judges one RTT observation against the round minima,
// returning true when CSS decides slow start is over.
func (h *hystartPP) sample(rtt time.Duration, cwndSegments float64, r *cc.Rounds) (exitSlowStart bool) {
	if rtt <= 0 || cwndSegments < hsppMinCwndSegments {
		return false
	}
	if r.Samples < hsppMinSamples || r.PrevMin == 0 {
		return false
	}

	if !h.inCSS {
		// RFC 9406 §4.2: RttThresh = clamp(lastRoundMinRTT/8, 4ms, 16ms).
		if r.RoundMin >= r.PrevMin+delayThresh(r.PrevMin) {
			h.inCSS = true
			h.cssBaselineRTT = r.PrevMin
			h.cssRounds = 0
		}
		return false
	}

	// In CSS: a fall back below the baseline means the delay increase
	// was spurious — resume full slow start.
	if r.RoundMin < h.cssBaselineRTT {
		h.inCSS = false
		return false
	}
	return h.cssRounds >= hsppCSSRounds
}

// growthDivisor returns the current slow-start growth divisor (1
// normally, 4 in CSS).
func (h *hystartPP) growthDivisor() float64 {
	if h.inCSS {
		return hsppCSSGrowthDiv
	}
	return 1
}

// InCSS reports whether HyStart++ is in its conservative phase
// (exposed for traces and tests).
func (c *Cubic) InCSS() bool { return c.ss == &c.hpp && c.hpp.inCSS }
