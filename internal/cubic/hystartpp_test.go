package cubic

import (
	"testing"
	"time"
)

func newHSPPCubic() (*Cubic, *fakeEnv) {
	opt := DefaultOptions()
	opt.HyStartPP = true
	env := &fakeEnv{mss: 1448}
	return New(env, opt), env
}

// driveRound feeds one round of ACKs at the given RTT, advancing the
// round boundary first.
func driveRound(c *Cubic, env *fakeEnv, cum *int64, rtt time.Duration, acks int) {
	// Round-advancing ack: jump cum past the previous round end.
	env.now += rtt
	*cum += 1448 * 1000
	c.OnAck(ackEvent(env, 1448, *cum, *cum+1448*800, rtt))
	for i := 1; i < acks; i++ {
		env.now += rtt / time.Duration(acks)
		*cum += 1448
		c.OnAck(ackEvent(env, 1448, *cum, *cum+1448*800, rtt))
	}
}

func TestHSPPStaysInSlowStartOnFlatRTT(t *testing.T) {
	c, env := newHSPPCubic()
	c.SetCwndSegments(64)
	var cum int64 = 1448
	for r := 0; r < 6; r++ {
		driveRound(c, env, &cum, 100*time.Millisecond, 12)
	}
	if !c.InSlowStart() {
		t.Fatal("flat RTT must not end slow start")
	}
	if c.InCSS() {
		t.Fatal("flat RTT must not enter CSS")
	}
}

func TestHSPPEntersCSSOnDelayIncrease(t *testing.T) {
	c, env := newHSPPCubic()
	c.SetCwndSegments(64)
	var cum int64 = 1448
	driveRound(c, env, &cum, 100*time.Millisecond, 12)
	before := c.CwndSegments()
	// RTT jumps by 20 ms > clamp(100/8, 4, 16) = 12.5→12.5ms... (16ms cap).
	driveRound(c, env, &cum, 120*time.Millisecond, 12)
	if !c.InCSS() {
		t.Fatal("a 20% RTT increase must enter CSS")
	}
	if !c.InSlowStart() {
		t.Fatal("CSS is still slow start")
	}
	// Growth continues but divided by 4.
	afterCSSEntry := c.CwndSegments()
	driveRound(c, env, &cum, 120*time.Millisecond, 12)
	growthCSS := c.CwndSegments() - afterCSSEntry
	if growthCSS <= 0 {
		t.Fatal("CSS must still grow")
	}
	growthSS := afterCSSEntry - before
	if growthCSS > growthSS {
		t.Errorf("CSS growth %v not slower than SS growth %v", growthCSS, growthSS)
	}
}

func TestHSPPExitsAfterFiveCSSRounds(t *testing.T) {
	c, env := newHSPPCubic()
	c.SetCwndSegments(64)
	var cum int64 = 1448
	driveRound(c, env, &cum, 100*time.Millisecond, 12)
	for r := 0; r < 8 && c.InSlowStart(); r++ {
		driveRound(c, env, &cum, 125*time.Millisecond, 12)
	}
	if c.InSlowStart() {
		t.Fatal("persistent delay increase must end slow start after 5 CSS rounds")
	}
	if !c.ExitedByHyStart() {
		t.Error("exit should be attributed to the slow-start heuristic")
	}
}

func TestHSPPSpuriousSignalResumesSlowStart(t *testing.T) {
	c, env := newHSPPCubic()
	c.SetCwndSegments(64)
	var cum int64 = 1448
	driveRound(c, env, &cum, 100*time.Millisecond, 12)
	driveRound(c, env, &cum, 120*time.Millisecond, 12) // enter CSS
	if !c.InCSS() {
		t.Fatal("setup: not in CSS")
	}
	// RTT falls back below the baseline: the signal was spurious.
	driveRound(c, env, &cum, 95*time.Millisecond, 12)
	if c.InCSS() {
		t.Fatal("RTT back below baseline must resume full slow start")
	}
	if !c.InSlowStart() {
		t.Fatal("must still be in slow start")
	}
	// And it can re-enter CSS later.
	driveRound(c, env, &cum, 100*time.Millisecond, 12)
	driveRound(c, env, &cum, 125*time.Millisecond, 12)
	if !c.InCSS() {
		t.Error("should re-enter CSS on a fresh delay increase")
	}
}

func TestHSPPInactiveBelowMinCwnd(t *testing.T) {
	c, env := newHSPPCubic()
	// cwnd stays below 16 segments: signals must be ignored. (Few acks
	// per round so slow-start growth does not cross the threshold.)
	var cum int64 = 1448
	driveRound(c, env, &cum, 100*time.Millisecond, 2)
	driveRound(c, env, &cum, 200*time.Millisecond, 2)
	if c.InCSS() || !c.InSlowStart() {
		t.Error("HyStart++ engaged below its minimum window")
	}
}

func TestHSPPOverridesClassicHyStart(t *testing.T) {
	opt := DefaultOptions()
	opt.HyStart = true
	opt.HyStartPP = true
	env := &fakeEnv{mss: 1448}
	c := New(env, opt)
	if _, ok := c.ss.(*hystartPP); !ok {
		t.Fatalf("slow-start policy %T, want HyStart++", c.ss)
	}
}
