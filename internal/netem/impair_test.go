package netem

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"suss/internal/netsim"
)

// scriptedJudge runs a stage over a fixed packet schedule (1 ms
// spacing, alternating sizes) and renders every verdict into one
// line-per-packet string — the canonical form the determinism and
// golden tests compare.
func scriptedJudge(s netsim.ImpairStage, n int) string {
	var b strings.Builder
	pkt := &netsim.Packet{Kind: netsim.Data}
	for i := 0; i < n; i++ {
		now := time.Duration(i) * time.Millisecond
		pkt.Seq = int64(i) * 1448
		pkt.Size = 1500 - (i%2)*500
		v := s.Judge(now, pkt)
		fmt.Fprintf(&b, "%d drop=%v cause=%d extra=%d oob=%v dup=%v dupextra=%d\n",
			i, v.Drop, v.Cause, v.ExtraDelay, v.OutOfBand, v.Duplicate, v.DupExtraDelay)
	}
	return b.String()
}

// stageFactories builds every stochastic stage from a seed, so the
// tests can assert schedules are pure functions of the seed.
func stageFactories() map[string]func(seed int64) netsim.ImpairStage {
	return map[string]func(seed int64) netsim.ImpairStage{
		"reorder": func(seed int64) netsim.ImpairStage {
			return NewReorder(0.2, time.Millisecond, 10*time.Millisecond, rand.New(rand.NewSource(seed)))
		},
		"duplicate": func(seed int64) netsim.ImpairStage {
			return NewDuplicate(0.2, time.Millisecond, rand.New(rand.NewSource(seed)))
		},
		"corrupt": func(seed int64) netsim.ImpairStage {
			return NewCorrupt(0.1, rand.New(rand.NewSource(seed)))
		},
		"erasure-ge": func(seed int64) netsim.ImpairStage {
			return NewGilbertElliott(0.05, 0.3, 0, 0.5, rand.New(rand.NewSource(seed)))
		},
		"flaps": func(seed int64) netsim.ImpairStage {
			return NewFlaps(20*time.Millisecond, 5*time.Millisecond, rand.New(rand.NewSource(seed)))
		},
	}
}

// TestImpairStageDeterminism: identical seeds produce byte-identical
// impairment schedules; different seeds diverge.
func TestImpairStageDeterminism(t *testing.T) {
	for name, mk := range stageFactories() {
		t.Run(name, func(t *testing.T) {
			a := scriptedJudge(mk(7), 500)
			b := scriptedJudge(mk(7), 500)
			if a != b {
				t.Fatal("same seed produced different schedules")
			}
			if c := scriptedJudge(mk(8), 500); c == a {
				t.Fatal("different seed produced an identical schedule")
			}
		})
	}
}

// TestScheduledStagesDeterministic: the RNG-free stages are pure
// functions of time.
func TestScheduledStagesDeterministic(t *testing.T) {
	mkOutage := func() netsim.ImpairStage {
		return &Outage{Windows: []Window{
			{Start: 10 * time.Millisecond, End: 20 * time.Millisecond},
			{Start: 100 * time.Millisecond, End: 130 * time.Millisecond},
		}}
	}
	if scriptedJudge(mkOutage(), 200) != scriptedJudge(mkOutage(), 200) {
		t.Error("outage schedule not deterministic")
	}
	mkStep := func() netsim.ImpairStage {
		return &RTTStep{Steps: []DelayStep{
			{At: 30 * time.Millisecond, Delta: 40 * time.Millisecond},
			{At: 90 * time.Millisecond, Delta: -15 * time.Millisecond},
		}}
	}
	got := scriptedJudge(mkStep(), 200)
	if got != scriptedJudge(mkStep(), 200) {
		t.Error("rtt-step schedule not deterministic")
	}
	// The cumulative delta must appear exactly at the step times.
	if !strings.Contains(got, "29 drop=false cause=0 extra=0 ") {
		t.Error("delta applied before its step time")
	}
	if !strings.Contains(got, fmt.Sprintf("30 drop=false cause=0 extra=%d ", 40*time.Millisecond)) {
		t.Error("delta missing at step time")
	}
	if !strings.Contains(got, fmt.Sprintf("90 drop=false cause=0 extra=%d ", 25*time.Millisecond)) {
		t.Error("negative delta not folded into the cumulative sum")
	}
}

// TestImpairGolden pins the exact impairment schedule for a fixed
// seed, plus a VariableRate sample trace: Go's math/rand stream is
// covered by the compatibility promise, so any hash change means the
// stages (or their draw order) changed behavior — exactly what the
// determinism contract forbids silently.
func TestImpairGolden(t *testing.T) {
	var b strings.Builder
	names := []string{"reorder", "duplicate", "corrupt", "erasure-ge", "flaps"}
	fac := stageFactories()
	for _, n := range names {
		b.WriteString(n + ":\n")
		b.WriteString(scriptedJudge(fac[n](42), 300))
	}
	b.WriteString("variable-rate:\n")
	vr := NewVariableRate(100e6, 0.3, rand.New(rand.NewSource(42)))
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&b, "%d %.0f\n", i, vr.Rate(time.Duration(i)*50*time.Millisecond))
	}
	sum := sha256.Sum256([]byte(b.String()))
	const want = "aa1ffd15899e0516ea9316bae94053a47c40a376e21991c024c725fc14cdbcf0"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("impairment schedule golden hash changed:\n got %s\nwant %s\n"+
			"(a deliberate behavior change must update the pinned hash)", got, want)
	}
}
