package core

import (
	"testing"
	"time"
)

// TestEquations pins each of the paper's equations, as the controller
// evaluates them, on hand-computed rows that cite the equation and its
// section.
func TestEquations(t *testing.T) {
	const ms = time.Millisecond
	const mss = 1448
	durations := []struct {
		row       string
		got, want time.Duration
	}{
		// Kmax = 1: the body text and Appendix A's pseudo-code disagree on
		// the bound for G = 4. The code follows the body text (below).
		{"Eq. 6 (§3), Kmax = 1, body text: G = 4 needs ΔtAt ≤ minRTT/4", ackTrainBound(100*ms, 0.5, 1), 25 * ms},
		{"Algorithm 1 (App. A), Kmax = 1, pre-increment test: G = 4 at ΔtAt ≤ minRTT/2", ackTrainBound(100*ms, 0.5, 0), 50 * ms},
		{"Eq. 17 (App. A), k = 2: G = 8 needs ΔtAt ≤ minRTT/8", ackTrainBound(128*ms, 0.5, 2), 16 * ms},
		{"Eq. 17 (App. A), k = 3: G = 16 needs ΔtAt ≤ minRTT/16", ackTrainBound(128*ms, 0.5, 3), 8 * ms},
		{"Eq. 19 (App. A): 5 ms drift over r = 1, one round ahead", projectedRTT(105*ms, 100*ms, 1, 1), 110 * ms},
		{"Eq. 19 (App. A): 10 ms drift over r = 2, two rounds ahead", projectedRTT(110*ms, 100*ms, 2, 2), 120 * ms},
		{"Eq. 11 (§3): pacing period for S_Rdt = cwnd_i/2 lasts minRTT/2", paceTime(100*ms, 20*mss, 40*mss), 50 * ms},
		{"Eq. 11 (§3): one MSS of a 40-segment cwnd_i every minRTT/40", paceTime(100*ms, mss, 40*mss), 2500 * time.Microsecond},
		{"Eq. 12 (§3): minRTT·S_Bdt/(2·cwnd_i) − ΔtBat/2 = 12.5 − 5 ms", guardInterval(100*ms, 20*mss, 80*mss, 10*ms), 7500 * time.Microsecond},
		{"Eq. 12 (§3): a long ACK train leaves no guard, never a negative one", guardInterval(100*ms, mss, 80*mss, 50*ms), 0},
	}
	for _, c := range durations {
		if c.got != c.want {
			t.Errorf("%s: got %v, want %v", c.row, c.got, c.want)
		}
	}
	floats := []struct {
		row       string
		got, want float64
	}{
		{"Eq. 9 (§3): cwnd_{i-1}/S_Bdt_{i-1} after an accelerated round", trainRatio(40*mss, 20*mss), 2},
		{"Eq. 9 (§3): doubling rounds leave the blue train unscaled", trainRatio(20*mss, 20*mss), 1},
		{"Eq. 9 (§3): never below 1", trainRatio(10*mss, 20*mss), 1},
		{"Eq. 9 (§3): no blue train yet", trainRatio(10*mss, 0), 1},
		{"Eq. 11 (§3): rate = cwnd_i/minRTT in bits/sec", paceRate(40*mss, 100*ms), 40 * mss * 8 / 0.1},
	}
	for _, c := range floats {
		if c.got != c.want {
			t.Errorf("%s: got %v, want %v", c.row, c.got, c.want)
		}
	}

	// The controller takes the body-text reading: at Kmax = 1 a train
	// of minRTT/2, which the pre-increment test would accept, grants no
	// acceleration.
	s, _ := newWhiteboxSuss(DefaultOptions())
	setRounds(s, 2, 2, 100*ms)
	if k := s.computeK(50 * ms); k != 0 {
		t.Errorf("Kmax = 1, ΔtAt = minRTT/2: k = %d, want 0 (Eq. 6)", k)
	}
	if k := s.computeK(25 * ms); k != 1 {
		t.Errorf("Kmax = 1, ΔtAt = minRTT/4: k = %d, want 1 (Eq. 6)", k)
	}
}
