package experiments

import (
	"strings"
	"testing"
	"time"
)

// TestFig15NeverRecoveredRendering: a variant whose index never
// returned above 0.95 prints "not reached", never the sentinel as a
// duration like "-1ns".
func TestFig15NeverRecoveredRendering(t *testing.T) {
	r := Fig15Result{
		Config:       Fig15Config{RTT: 200 * time.Millisecond, BufferBDP: 1},
		JoinAt:       15 * time.Second,
		Jain:         [2][]float64{{0.6, 0.7}, {0.8, 0.96}},
		RecoveryTime: [2]time.Duration{NeverReached, time.Second},
		MeanPostJoin: [2]float64{0.65, 0.88},
	}
	out := r.Render()
	if !strings.Contains(out, "SUSS off recovery(F≥0.95)=not reached") {
		t.Errorf("unrecovered variant not rendered as \"not reached\":\n%s", out)
	}
	if !strings.Contains(out, "SUSS on  recovery(F≥0.95)=1s ") {
		t.Errorf("recovered variant not rendered as a duration:\n%s", out)
	}
	if strings.Contains(out, "-1ns") {
		t.Errorf("sentinel leaked into output as a duration:\n%s", out)
	}
}
