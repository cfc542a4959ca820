package experiments

import (
	"strings"
	"testing"
	"time"

	"suss/internal/runner"
)

// TestFig02NeverReachedRendering pins the sentinel rendering: an
// unreached share threshold must print "not reached", never a
// negative duration like "-1ns".
func TestFig02NeverReachedRendering(t *testing.T) {
	r := Fig02Result{
		Algo:            runner.Cubic,
		JoinAt:          8 * time.Second,
		FairShare:       10e6,
		Share:           []float64{0.1, 0.2, 0.3},
		TimeToHalfShare: NeverReached,
		TimeToFairShare: NeverReached,
	}
	out := r.Render()
	if !strings.Contains(out, "time to 50% share: not reached") ||
		!strings.Contains(out, "time to 80% share: not reached") {
		t.Errorf("unreached thresholds not rendered as \"not reached\":\n%s", out)
	}
	if strings.Contains(out, "-1ns") {
		t.Errorf("sentinel leaked into output as a duration:\n%s", out)
	}

	r.TimeToHalfShare = 3 * time.Second
	out = r.Render()
	if !strings.Contains(out, "time to 50% share: 3s") {
		t.Errorf("reached threshold not rendered as a duration:\n%s", out)
	}
	if !strings.Contains(out, "time to 80% share: not reached") {
		t.Errorf("mixed case lost the unreached sentinel:\n%s", out)
	}
}

func TestFig02SentinelDistinctFromZero(t *testing.T) {
	// Reaching the threshold in the join bin itself is a legitimate
	// 0s, which must not collide with the sentinel.
	if NeverReached == 0 {
		t.Fatal("NeverReached must be distinguishable from an immediate 0s")
	}
	if fmtReached(0) != "0s" {
		t.Errorf("fmtReached(0) = %q, want \"0s\"", fmtReached(0))
	}
}
