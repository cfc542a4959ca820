package cubic

import (
	"math"
	"testing"
	"time"

	"suss/internal/cc"
	"suss/internal/obs"
)

// fakeEnv satisfies cc.Env for unit tests.
type fakeEnv struct {
	now time.Duration
	mss int
}

type fakeTimer struct{}

func (fakeTimer) Stop() bool   { return false }
func (fakeTimer) Active() bool { return false }

func (f *fakeEnv) Now() time.Duration                           { return f.now }
func (f *fakeEnv) Schedule(d time.Duration, fn func()) cc.Timer { return fakeTimer{} }
func (f *fakeEnv) Kick()                                        {}
func (f *fakeEnv) MSS() int                                     { return f.mss }

func newTestCubic(opt Options) (*Cubic, *fakeEnv) {
	env := &fakeEnv{mss: 1448}
	return New(env, opt), env
}

func ackEvent(env *fakeEnv, acked int, cum, nxt int64, rtt time.Duration) cc.AckEvent {
	return cc.AckEvent{
		Now:        env.now,
		AckedBytes: acked,
		CumAck:     cum,
		SndNxt:     nxt,
		RTT:        rtt,
	}
}

func TestInitialWindow(t *testing.T) {
	c, env := newTestCubic(DefaultOptions())
	if got := c.CwndBytes(); got != int64(10*env.mss) {
		t.Errorf("initial cwnd = %d bytes, want %d", got, 10*env.mss)
	}
	if !c.InSlowStart() {
		t.Error("should start in slow start")
	}
}

func TestSlowStartDoublesPerWindow(t *testing.T) {
	opt := DefaultOptions()
	opt.HyStart = false
	c, env := newTestCubic(opt)
	mss := env.mss
	// Ack one full window: cwnd should double.
	start := c.CwndSegments()
	acked := int(start) * mss
	env.now = 100 * time.Millisecond
	c.OnAck(ackEvent(env, acked, int64(acked), int64(2*acked), 100*time.Millisecond))
	if got := c.CwndSegments(); math.Abs(got-2*start) > 0.01 {
		t.Errorf("cwnd after full-window ack = %v, want %v", got, 2*start)
	}
}

func TestRecoveryAcksDoNotGrow(t *testing.T) {
	c, env := newTestCubic(DefaultOptions())
	before := c.CwndSegments()
	ev := ackEvent(env, env.mss, 1448, 2896, 50*time.Millisecond)
	ev.InRecovery = true
	c.OnAck(ev)
	if c.CwndSegments() != before {
		t.Errorf("cwnd grew during recovery: %v → %v", before, c.CwndSegments())
	}
}

func TestLossMultiplicativeDecrease(t *testing.T) {
	c, env := newTestCubic(DefaultOptions())
	c.SetCwndSegments(100)
	c.OnLoss(cc.LossEvent{Now: env.now, Inflight: 100 * 1448})
	if got := c.CwndSegments(); math.Abs(got-70) > 0.01 {
		t.Errorf("cwnd after loss = %v, want 70", got)
	}
	if c.InSlowStart() {
		t.Error("loss must end slow start")
	}
	if math.Abs(c.SsthreshSegments()-70) > 0.01 {
		t.Errorf("ssthresh = %v, want 70", c.SsthreshSegments())
	}
}

func TestFastConvergenceShrinksWmax(t *testing.T) {
	c, _ := newTestCubic(DefaultOptions())
	c.SetCwndSegments(100)
	c.OnLoss(cc.LossEvent{})
	firstWmax := c.wMax
	// Second loss below the previous Wmax: fast convergence shrinks it.
	c.OnLoss(cc.LossEvent{})
	if c.wMax >= firstWmax {
		t.Errorf("wMax %v not shrunk from %v", c.wMax, firstWmax)
	}
	want := 70 * (2 - 0.7) / 2
	if math.Abs(c.wMax-want) > 0.01 {
		t.Errorf("wMax = %v, want %v", c.wMax, want)
	}
}

func TestRTOCollapsesWindow(t *testing.T) {
	c, _ := newTestCubic(DefaultOptions())
	c.SetCwndSegments(50)
	c.OnRTO(time.Second)
	if c.CwndSegments() != 1 {
		t.Errorf("cwnd after RTO = %v, want 1", c.CwndSegments())
	}
	if !c.InSlowStart() {
		t.Error("RTO should re-enter slow start")
	}
	if math.Abs(c.SsthreshSegments()-35) > 0.01 {
		t.Errorf("ssthresh = %v, want 35", c.SsthreshSegments())
	}
}

func TestCubicConcaveGrowthTowardWmax(t *testing.T) {
	opt := DefaultOptions()
	opt.TCPFriendly = false
	c, env := newTestCubic(opt)
	c.SetCwndSegments(100)
	env.now = time.Second
	c.OnAck(ackEvent(env, env.mss, 1448, 1448*200, 100*time.Millisecond)) // set srtt
	c.OnLoss(cc.LossEvent{Now: env.now})
	afterLoss := c.CwndSegments() // 70

	// Drive ACKs for several seconds of virtual time; window must grow
	// back toward Wmax=100 but not wildly beyond in the concave phase.
	mss := env.mss
	var cum int64 = 1448
	for i := 0; i < 4000; i++ {
		env.now += 2 * time.Millisecond
		cum += int64(mss)
		c.OnAck(ackEvent(env, mss, cum, cum+1448*100, 100*time.Millisecond))
	}
	w := c.CwndSegments()
	if w <= afterLoss {
		t.Errorf("no growth after loss: %v", w)
	}
	if w < 95 || w > 130 {
		t.Errorf("cwnd after ≈8s = %v, want near Wmax=100 (cubic plateau)", w)
	}
}

func TestCubicConvexGrowthBeyondWmax(t *testing.T) {
	opt := DefaultOptions()
	opt.TCPFriendly = false
	c, env := newTestCubic(opt)
	c.SetCwndSegments(100)
	env.now = time.Second
	c.OnAck(ackEvent(env, env.mss, 1448, 1448*200, 100*time.Millisecond))
	c.OnLoss(cc.LossEvent{Now: env.now})

	mss := env.mss
	var cum int64 = 1448
	// K = cbrt(100*0.3/0.4) ≈ 4.22 s. Run 12 s: well into convex phase.
	for i := 0; i < 12000; i++ {
		env.now += time.Millisecond
		cum += int64(mss)
		c.OnAck(ackEvent(env, mss, cum, cum+1448*100, 100*time.Millisecond))
	}
	if w := c.CwndSegments(); w < 110 {
		t.Errorf("cwnd after 12s = %v, want convex growth past Wmax", w)
	}
}

func TestHyStartAckTrainExit(t *testing.T) {
	c, env := newTestCubic(DefaultOptions())
	c.SetCwndSegments(64)
	mss := env.mss

	// Establish minRTT = 100 ms.
	env.now = 100 * time.Millisecond
	c.OnAck(ackEvent(env, mss, 1448, 1448*300, 100*time.Millisecond))

	// New round: closely spaced ACKs spanning > minRTT/2 = 50 ms.
	var cum int64 = 1448 * 300
	env.now = 200 * time.Millisecond
	c.OnAck(ackEvent(env, mss, cum+1448, cum+1448*300, 100*time.Millisecond))
	for i := 0; i < 40 && c.InSlowStart(); i++ {
		env.now += 2 * time.Millisecond // within the 2 ms train delta
		cum += 1448
		c.OnAck(ackEvent(env, mss, cum, cum+1448*300, 100*time.Millisecond))
	}
	if c.InSlowStart() {
		t.Fatal("ACK-train detection did not exit slow start")
	}
	if !c.ExitedByHyStart() {
		t.Error("exit should be attributed to HyStart")
	}
}

// TestHyStartAckTrainBoundary: a train spanning exactly minRTT/2 from
// the round start stays in slow start; the next ACK, a nanosecond past
// it, exits.
func TestHyStartAckTrainBoundary(t *testing.T) {
	c, env := newTestCubic(DefaultOptions())
	c.SetCwndSegments(64)
	mss := env.mss
	env.now = 100 * time.Millisecond
	c.OnAck(ackEvent(env, mss, 1448, 1448*300, 100*time.Millisecond)) // minRTT = 100 ms

	var cum int64 = 1448 * 300
	env.now = 200 * time.Millisecond // the new round's start
	c.OnAck(ackEvent(env, mss, cum+1448, cum+1448*300, 100*time.Millisecond))
	for env.now < 250*time.Millisecond {
		env.now += 2 * time.Millisecond
		cum += 1448
		c.OnAck(ackEvent(env, mss, cum, cum+1448*300, 100*time.Millisecond))
	}
	if !c.InSlowStart() {
		t.Fatal("a train spanning exactly minRTT/2 exited slow start")
	}
	env.now += time.Nanosecond
	c.OnAck(ackEvent(env, mss, cum+1448, cum+1448*300, 100*time.Millisecond))
	if c.InSlowStart() || !c.ExitedByHyStart() {
		t.Fatal("a train spanning minRTT/2 + 1 ns did not exit slow start by HyStart")
	}
}

func TestHyStartDelayExit(t *testing.T) {
	c, env := newTestCubic(DefaultOptions())
	c.SetCwndSegments(64)
	mss := env.mss

	env.now = 100 * time.Millisecond
	c.OnAck(ackEvent(env, mss, 1448, 1448*300, 100*time.Millisecond)) // minRTT=100ms

	// New round with RTT samples at 1.2×minRTT (> 1.125 threshold),
	// spaced widely so the ACK-train detector stays quiet.
	var cum int64 = 1448 * 300
	env.now = 300 * time.Millisecond
	c.OnAck(ackEvent(env, mss, cum+1448, cum+1448*300, 120*time.Millisecond))
	for i := 0; i < 10 && c.InSlowStart(); i++ {
		env.now += 10 * time.Millisecond
		cum += 1448
		c.OnAck(ackEvent(env, mss, cum, cum+1448*300, 120*time.Millisecond))
	}
	if c.InSlowStart() {
		t.Fatal("delay detection did not exit slow start")
	}
}

func TestHyStartInactiveBelowLowWindow(t *testing.T) {
	c, env := newTestCubic(DefaultOptions())
	mss := env.mss
	env.now = 100 * time.Millisecond
	c.OnAck(ackEvent(env, mss, 1448, 1448*300, 100*time.Millisecond))
	// cwnd ≈ 11 < 16: even pathological samples must not exit.
	var cum int64 = 1448 * 300
	env.now = 300 * time.Millisecond
	for i := 0; i < 10; i++ {
		env.now += time.Millisecond
		cum += 1448
		c.OnAck(ackEvent(env, mss, cum, cum+1448*300, 500*time.Millisecond))
	}
	if !c.InSlowStart() {
		t.Error("HyStart fired below its low-window threshold")
	}
}

// A round that rolls on a recovery ACK (which never reaches the
// slow-start policy) still starts a fresh HyStart train: the policy
// resets when the host's round number moves, not on the ACK that moved
// it.
func TestHyStartResetsAfterRecoveryRoll(t *testing.T) {
	c, env := newTestCubic(DefaultOptions())
	c.SetCwndSegments(64)
	mss := env.mss
	env.now = 100 * time.Millisecond
	c.OnAck(ackEvent(env, mss, 1448, 1448*300, 100*time.Millisecond)) // round 1, minRTT 100 ms

	// Round 2: seven samples at 120 ms (over the 112.5 ms threshold),
	// one short of the eight the delay test waits for.
	var cum int64 = 1448 * 300
	for i := 0; i < 7; i++ {
		env.now += 10 * time.Millisecond
		cum += 1448
		c.OnAck(ackEvent(env, mss, cum, cum+1448*300, 120*time.Millisecond))
	}
	// A recovery ACK rolls round 3.
	cum += 1448 * 300
	env.now += 10 * time.Millisecond
	ev := ackEvent(env, mss, cum, cum+1448*300, 120*time.Millisecond)
	ev.InRecovery = true
	c.OnAck(ev)
	if n := c.Rounds().N; n != 3 {
		t.Fatalf("round = %d after the recovery roll, want 3", n)
	}
	// Round 3's first slow-start ACK is its first HyStart sample, not
	// round 2's eighth.
	env.now += 10 * time.Millisecond
	cum += 1448
	c.OnAck(ackEvent(env, mss, cum, cum+1448*600, 120*time.Millisecond))
	if !c.InSlowStart() {
		t.Fatal("HyStart counted samples across a round boundary")
	}
	for i := 0; i < 7 && c.InSlowStart(); i++ {
		env.now += 10 * time.Millisecond
		cum += 1448
		c.OnAck(ackEvent(env, mss, cum, cum+1448*600, 120*time.Millisecond))
	}
	if c.InSlowStart() {
		t.Fatal("eight samples of round 3 did not trigger the delay exit")
	}
}

func TestExitSlowStartIdempotent(t *testing.T) {
	c, _ := newTestCubic(DefaultOptions())
	c.SetCwndSegments(40)
	c.ExitSlowStart(0, obs.ExitTrain)
	if c.InSlowStart() {
		t.Fatal("still in slow start after exit")
	}
	ss := c.SsthreshSegments()
	c.ExitSlowStart(0, obs.ExitDelay) // no-op now
	if c.SsthreshSegments() != ss {
		t.Error("second ExitSlowStart changed ssthresh")
	}
}

func TestCwndFloor(t *testing.T) {
	c, _ := newTestCubic(DefaultOptions())
	c.SetCwndSegments(1)
	if c.CwndSegments() < 2 {
		t.Errorf("SetCwndSegments allowed cwnd below 2: %v", c.CwndSegments())
	}
	c.SetCwndSegments(2.5)
	c.OnLoss(cc.LossEvent{})
	if c.CwndSegments() < 2 {
		t.Errorf("loss pushed cwnd below floor: %v", c.CwndSegments())
	}
}
