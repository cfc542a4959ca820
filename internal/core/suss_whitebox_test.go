package core

import (
	"testing"
	"testing/quick"
	"time"

	"suss/internal/cc"
	"suss/internal/netsim"
)

// simEnv adapts a netsim.Simulator as cc.Env for white-box tests.
type simEnv struct {
	sim   *netsim.Simulator
	kicks int
	mss   int
}

func (e *simEnv) Now() time.Duration { return e.sim.Now() }
func (e *simEnv) Schedule(d time.Duration, fn func()) cc.Timer {
	return e.sim.Schedule(d, fn)
}
func (e *simEnv) Kick()    { e.kicks++ }
func (e *simEnv) MSS() int { return e.mss }

func newWhiteboxSuss(opt Options) (*Suss, *simEnv) {
	env := &simEnv{sim: netsim.NewSimulator(), mss: 1448}
	return New(env, opt), env
}

// setRounds puts the host's round tracker at round n with minimum RTT
// min set in round minRound (the paper's round n+1 and minRound+1).
func setRounds(s *Suss, n, minRound int, min time.Duration) *cc.Rounds {
	r := s.Rounds()
	r.N, r.MinRound, r.Min = n, minRound, min
	return r
}

func TestComputeKConditionOne(t *testing.T) {
	s, _ := newWhiteboxSuss(DefaultOptions())
	setRounds(s, 2, 2, 100*time.Millisecond) // r = 0: condition 2 vacuous

	cases := []struct {
		dtAt time.Duration
		want int
	}{
		{10 * time.Millisecond, 1}, // ≤ minRTT/4 → k=1 (kmax=1)
		{25 * time.Millisecond, 1}, // exactly minRTT/4
		{26 * time.Millisecond, 0}, // > minRTT/4 → no acceleration
		{60 * time.Millisecond, 0}, // > minRTT/2 as well
	}
	for _, c := range cases {
		if got := s.computeK(c.dtAt); got != c.want {
			t.Errorf("computeK(%v) = %d, want %d", c.dtAt, got, c.want)
		}
	}
}

func TestComputeKKmaxGeneralized(t *testing.T) {
	opt := DefaultOptions()
	opt.Kmax = 3
	s, _ := newWhiteboxSuss(opt)
	setRounds(s, 4, 4, 128*time.Millisecond)

	// Appendix A: growth through k extra rounds requires
	// dtAt ≤ minRTT/2^(k+1): 32 ms → k=1, 16 ms → k=2, 8 ms → k=3.
	cases := []struct {
		dtAt time.Duration
		want int
	}{
		{40 * time.Millisecond, 0},
		{32 * time.Millisecond, 1},
		{16 * time.Millisecond, 2},
		{8 * time.Millisecond, 3},
		{1 * time.Millisecond, 3}, // clamped at kmax
	}
	for _, c := range cases {
		if got := s.computeK(c.dtAt); got != c.want {
			t.Errorf("computeK(%v) = %d, want %d", c.dtAt, got, c.want)
		}
	}
}

func TestComputeKConditionTwo(t *testing.T) {
	s, _ := newWhiteboxSuss(DefaultOptions())
	r := setRounds(s, 3, 2, 100*time.Millisecond) // r = 1
	dtAt := 10 * time.Millisecond

	// moRTT = 105 ms: projected next-round 110 ms ≤ 112.5 ms → k=1.
	r.RoundMin = 105 * time.Millisecond
	if got := s.computeK(dtAt); got != 1 {
		t.Errorf("moderate queueing: k = %d, want 1", got)
	}
	// moRTT = 110 ms: projected 120 ms > 112.5 ms → refuse.
	r.RoundMin = 110 * time.Millisecond
	if got := s.computeK(dtAt); got != 0 {
		t.Errorf("rising queueing: k = %d, want 0", got)
	}
	// r = 0 bypasses condition 2 entirely (Algorithm 1 line 3).
	r.MinRound = 3
	if got := s.computeK(dtAt); got != 1 {
		t.Errorf("r=0: k = %d, want 1", got)
	}
}

// Property: computeK is monotone — smaller dtAt can never yield a
// smaller k, and k is always within [0, Kmax].
func TestComputeKMonotoneProperty(t *testing.T) {
	f := func(minMs, dtA, dtB uint16, kmax uint8) bool {
		opt := DefaultOptions()
		opt.Kmax = int(kmax%4) + 1
		s, _ := newWhiteboxSuss(opt)
		setRounds(s, 2, 2, time.Duration(minMs%500+1)*time.Millisecond)
		a := time.Duration(dtA) * time.Microsecond
		b := time.Duration(dtB) * time.Microsecond
		if a > b {
			a, b = b, a
		}
		ka, kb := s.computeK(a), s.computeK(b)
		return ka >= kb && ka >= 0 && ka <= opt.Kmax && kb >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property (Lemma 1): whenever a pacing period is scheduled, the guard
// interval is at least S_Bdt/(4·cwnd)·minRTT.
func TestGuardLemmaProperty(t *testing.T) {
	f := func(minMs uint16, blueSegs uint8, batFrac uint8) bool {
		minRTT := time.Duration(minMs%400+20) * time.Millisecond

		// A consistent G=4 setting: prevBlue = prevCwnd/2 (one prior
		// accelerated round makes ratio 2), dtBat small enough that
		// dtAt = dtBat·ratio ≤ minRTT/4.
		blue := int64(blueSegs%60+4) * 1448
		prevCwnd, sBdt := 2*blue, 2*blue
		maxBat := time.Duration(float64(minRTT) / 4 / trainRatio(prevCwnd, blue))
		dtBat := maxBat * time.Duration(batFrac%100) / 100

		target := 4 * prevCwnd
		wantGuardMin := time.Duration(float64(minRTT) * float64(sBdt) / (4 * float64(target)))
		return guardInterval(minRTT, sBdt, target, dtBat) >= wantGuardMin-time.Nanosecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Eq. 10: S_Rdt_i = G·S_Rdt_{i-1} + (G-2)·2^(i-2)·iw, with
// S_Bdt_i = iw·2^(i-1) and cwnd_i = G·cwnd_{i-1}.
func TestEq10RedTrainRecurrence(t *testing.T) {
	for _, g := range []int64{4, 8} {
		iw := int64(10)
		cwnd := iw // cwnd_1
		sRdtPrev := int64(0)
		for i := int64(2); i <= 6; i++ {
			cwnd *= g
			sBdt := iw << (i - 1)
			sRdt := cwnd - sBdt
			want := g*sRdtPrev + (g-2)*(int64(1)<<(i-2))*iw
			if sRdt != want {
				t.Errorf("G=%d round %d: S_Rdt = %d, recurrence gives %d", g, i, sRdt, want)
			}
			sRdtPrev = sRdt
		}
	}
}

func TestBeginPacingArithmetic(t *testing.T) {
	s, env := newWhiteboxSuss(DefaultOptions())
	mss := int64(env.mss)
	minRTT := 100 * time.Millisecond
	setRounds(s, 1, 0, minRTT)

	// Fig. 6 round 2: iw = 10 segs, prevCwnd = iw, blue budget = 2·iw,
	// cwnd at decision = 2·iw, G = 4 → target 4·iw, S_Rdt = 2·iw,
	// pacing lasts minRTT/2.
	iw := 10 * mss
	s.prevBlueBudget = iw
	s.prevCwnd = iw
	s.blueBudget = 2 * iw
	s.SetCwndSegments(20)
	s.dtBat = 10 * time.Millisecond

	s.beginPacing(4)
	if !s.frozenRound {
		t.Fatal("pacing did not freeze the round")
	}
	target := 4 * iw
	wantRate := float64(target*8) / minRTT.Seconds()
	if s.pacingRate != wantRate {
		t.Errorf("pacing rate = %v, want %v (cwnd/minRTT, Eq. 11)", s.pacingRate, wantRate)
	}
	// redGrowth = target − cwndNow = 40−20 segs = 20 segs.
	if got := s.redRemaining; got != 20*mss {
		t.Errorf("red growth = %d, want %d", got, 20*mss)
	}
	// guard = minRTT·S_Bdt/(2·target) − dtBat/2 = 100·20/80/... =
	// 100ms·(20/80)/2 − 5ms = 12.5−5 = 7.5 ms.
	wantGuard := 7500 * time.Microsecond
	// The gate activates via a zero-delay event.
	env.sim.RunAll()
	_ = wantGuard
	if s.redRemaining != 0 {
		t.Errorf("after running all ticks, red remaining = %d", s.redRemaining)
	}
	// cwnd must have reached the round target exactly.
	if got := s.CwndBytes(); got != target {
		t.Errorf("cwnd after pacing = %d, want target %d", got, target)
	}
	if s.pacingActive {
		t.Error("pacing still active after end timer")
	}
	if env.kicks == 0 {
		t.Error("ticks never kicked the sender")
	}
}

func TestStopPacingDiscardsRemainder(t *testing.T) {
	s, env := newWhiteboxSuss(DefaultOptions())
	mss := int64(env.mss)
	setRounds(s, 1, 0, 100*time.Millisecond)
	iw := 10 * mss
	s.prevBlueBudget = iw
	s.prevCwnd = iw
	s.blueBudget = 2 * iw
	s.SetCwndSegments(20)
	s.dtBat = 10 * time.Millisecond
	s.beginPacing(4)

	// Run only partway into the pacing period, then abort (loss).
	env.sim.Run(20 * time.Millisecond)
	granted := 20*mss - s.redRemaining
	if s.redRemaining == 0 {
		t.Fatal("test needs an unfinished pacing period")
	}
	s.disable()
	env.sim.RunAll()
	want := 20*mss + granted // cwnd at decision + granted red only
	if got := s.CwndBytes(); got != want {
		t.Errorf("cwnd after abort = %d, want %d (no overhang)", got, want)
	}
}

func TestNoPacingAblationBursts(t *testing.T) {
	opt := DefaultOptions()
	opt.NoPacing = true
	s, env := newWhiteboxSuss(opt)
	mss := int64(env.mss)
	setRounds(s, 1, 0, 100*time.Millisecond)
	iw := 10 * mss
	s.prevBlueBudget = iw
	s.prevCwnd = iw
	s.blueBudget = 2 * iw
	s.SetCwndSegments(20)
	s.dtBat = 10 * time.Millisecond
	s.beginPacing(4)
	// The whole red window is granted immediately.
	if got := s.CwndBytes(); got != 4*iw {
		t.Errorf("cwnd = %d, want %d immediately", got, 4*iw)
	}
	if s.pacingActive {
		t.Error("ablation must not start a pacing period")
	}
}
