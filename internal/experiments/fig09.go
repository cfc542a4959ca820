package experiments

import (
	"fmt"
	"strings"
	"time"

	"suss/internal/cc"
	"suss/internal/core"
	"suss/internal/netem"
	"suss/internal/runner"
	"suss/internal/scenarios"
	"suss/internal/trace"
)

// Fig09Result reproduces Fig. 9 (cwnd and RTT dynamics with and
// without SUSS, 4G client ← US-East server) and Fig. 10 (total data
// delivered over time on the same path).
type Fig09Result struct {
	// Traces[0] is SUSS off, Traces[1] is SUSS on.
	Traces [2]*trace.FlowTrace
	// ExitCwnd is the cwnd (bytes) where exponential growth ended.
	ExitCwnd [2]int64
	// TimeToExitCwnd is when cwnd first reached ~90% of the common
	// exit window (the "half the time" claim of Fig. 9).
	TimeToExitCwnd [2]time.Duration
	// MaxSRTTDuringSS is the worst smoothed RTT before slow-start
	// exit: SUSS must not inflate it (Fig. 9 bottom).
	MaxSRTTDuringSS [2]time.Duration
	// DeliveredAt2s is Fig. 10's headline: bytes delivered two seconds
	// in (the paper reports ≈3× with SUSS).
	DeliveredAt2s [2]int64
	// GHistory is the measured growth factor sequence with SUSS on.
	GHistory []int
}

// RunFig09 traces both variants over the 4G scenario.
func RunFig09(size int64, seed int64) Fig09Result {
	var res Fig09Result
	sc := scenarios.New(scenarios.GoogleUSEast, netem.LTE4G, seed)
	for variant, v := range offOn {
		// The hook notes where exponential growth ended. A one-shot
		// Download runs on an engine and controller of its own, so ctrl
		// stays readable after the run.
		var (
			ctrl     cc.Controller
			exitCwnd int64
			exitAt   time.Duration
		)
		watchExit := func(env runner.ChaosEnv) {
			ctrl = env.Flow.Sender.Controller()
			env.Sim.StopWhen(func() bool {
				if exitCwnd == 0 && !ctrl.InSlowStart() {
					exitCwnd = ctrl.CwndBytes()
					exitAt = env.Sim.Now()
				}
				return false
			})
		}
		_, tr := downloadTrace(runner.Job{Scenario: sc, Algo: v.Algo, Size: size, Horizon: 5 * time.Minute, Impair: watchExit}, 5*time.Millisecond)

		res.Traces[variant] = tr
		res.ExitCwnd[variant] = exitCwnd
		var maxRTT time.Duration
		for _, s := range tr.Samples {
			if s.T > exitAt && exitAt != 0 {
				break
			}
			if s.SRTT > maxRTT {
				maxRTT = s.SRTT
			}
		}
		res.MaxSRTTDuringSS[variant] = maxRTT
		res.DeliveredAt2s[variant] = tr.At(2 * time.Second).Delivered
		if s, ok := ctrl.(*core.Suss); ok {
			res.GHistory = s.Stats().GHistory
		}
	}
	// Time to reach 90% of the smaller exit window, comparable across
	// the two variants.
	target := res.ExitCwnd[0]
	if res.ExitCwnd[1] != 0 && (target == 0 || res.ExitCwnd[1] < target) {
		target = res.ExitCwnd[1]
	}
	target = target * 9 / 10
	for v := 0; v < 2; v++ {
		if t, ok := res.Traces[v].TimeToCwnd(target); ok {
			res.TimeToExitCwnd[v] = t
		}
	}
	return res
}

// Render prints the headline metrics.
func (r Fig09Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 9/10 — cwnd & RTT dynamics, US-East → 4G client\n")
	names := [2]string{"SUSS off", "SUSS on"}
	for v := 0; v < 2; v++ {
		fmt.Fprintf(&b, "  %-8s exit cwnd=%5d segs  time-to-exit-cwnd=%-10v maxRTT(SS)=%-10v delivered@2s=%.2f MB\n",
			names[v], r.ExitCwnd[v]/1448, r.TimeToExitCwnd[v], r.MaxSRTTDuringSS[v],
			float64(r.DeliveredAt2s[v])/(1<<20))
	}
	if r.TimeToExitCwnd[1] > 0 && r.TimeToExitCwnd[0] > 0 {
		fmt.Fprintf(&b, "  ramp speedup: %.2fx (paper: ≈2x)\n",
			float64(r.TimeToExitCwnd[0])/float64(r.TimeToExitCwnd[1]))
	}
	if r.DeliveredAt2s[0] > 0 {
		fmt.Fprintf(&b, "  delivered@2s gain: %.2fx (paper: ≈3x)\n",
			float64(r.DeliveredAt2s[1])/float64(r.DeliveredAt2s[0]))
	}
	fmt.Fprintf(&b, "  G history (SUSS): %v\n", r.GHistory)
	return b.String()
}
