package chaos

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"suss/internal/netem"
	"suss/internal/netsim"
	"suss/internal/runner"
	"suss/internal/scenarios"
	"suss/internal/tcp"
)

// TestChaosMatrix is the headline liveness invariant: the full
// catalog × {SUSS, BBR} × 4 seeds, every flow completing (or erroring
// cleanly) with a balanced loss ledger and no watchdog kills.
func TestChaosMatrix(t *testing.T) {
	opt := DefaultOptions()
	m := Run(context.Background(), opt)
	want := len(opt.Impairments) * len(opt.Algos) * len(opt.Seeds)
	if len(m.Cells) != want {
		t.Fatalf("matrix has %d cells, want %d", len(m.Cells), want)
	}
	if fails := m.Failures(); len(fails) > 0 {
		// CI uploads the rendered matrix (including watchdog
		// flight-recorder tails) as an artifact on failure.
		if p := os.Getenv("CHAOS_DUMP"); p != "" {
			if err := os.WriteFile(p, []byte(m.Render()), 0o644); err != nil {
				t.Logf("writing CHAOS_DUMP: %v", err)
			}
		}
		t.Fatalf("%d failing cells:\n%s", len(fails), m.Render())
	}

	// The matrix must actually exercise the hardening paths, not just
	// survive: the reneging cells repair at least one episode, and the
	// impairment counters show the stages fired.
	var renegs, dupSegs int64
	for _, c := range m.Cells {
		l := c.Result.Ledger
		if c.Impairment == "sack-reneg" {
			renegs += l.SackRenegings
		}
		if c.Impairment == "duplicate" {
			dupSegs += l.PathDuplicates
		}
	}
	if renegs == 0 {
		t.Error("sack-reneg cells detected no reneging episodes")
	}
	if dupSegs == 0 {
		t.Error("duplicate cells injected no duplicates")
	}
}

// TestWatchdogKillsWedgedJob pins the watchdog semantics: a job whose
// event loop livelocks (events begetting events at a frozen virtual
// clock) is killed at its wall budget and reported as a *StallError
// with a flight-recorder tail, instead of hanging the suite.
func TestWatchdogKillsWedgedJob(t *testing.T) {
	j := runner.Job{
		Scenario:  scenarios.New(scenarios.OracleLondon, netem.Wired, 1),
		Algo:      runner.Cubic,
		Size:      1 << 20,
		Observe:   true,
		WallLimit: 100 * time.Millisecond,
		Impair: func(env runner.ChaosEnv) {
			// Classic livelock: a zero-delay event that reschedules
			// itself forever, pinning the virtual clock at zero.
			var fn func()
			fn = func() { env.Sim.Schedule(0, fn) }
			env.Sim.Schedule(0, fn)
		},
	}
	res := runner.Download(j)
	if res.Stall == nil {
		t.Fatal("wedged job was not killed by the watchdog")
	}
	if res.Completed {
		t.Fatal("wedged job reported completion")
	}
	if res.Stall.SimTime != 0 {
		t.Errorf("livelocked sim advanced to %v, want pinned at 0", res.Stall.SimTime)
	}
	if msg := res.Stall.Error(); !strings.Contains(msg, j.Scenario.Name()) || !strings.Contains(msg, "size=1048576") {
		t.Errorf("stall error %q does not describe the job", msg)
	}
	dump := res.Stall.Dump()
	// The flow's initial window went out at t=0 before the wedge pinned
	// the clock, so the dump must carry real flight-recorder events.
	if !strings.Contains(dump, "SegSent") {
		t.Errorf("stall dump carries no SegSent events:\n%s", dump)
	}

	// The batch runner surfaces the stall as the cell error.
	out := runner.Run(context.Background(), []runner.Job{j}, runner.Options{})
	var se *runner.StallError
	if !errors.As(out[0].Err, &se) {
		t.Fatalf("Run error %v does not wrap *StallError", out[0].Err)
	}
}

// TestInertImpairmentsAreFree pins the acceptance criterion that an
// unattached (or attached-but-inert) pipeline cannot perturb a run:
// the same job with no impairments, with a configured empty pipeline,
// and with zero-probability stages must produce identical
// measurements. On a 4G last hop the zero-probability stages run after
// the link's own loss and jitter, which must still act as they do
// alone.
func TestInertImpairmentsAreFree(t *testing.T) {
	wired := scenarios.New(scenarios.OracleLondon, netem.Wired, 3)
	lte := scenarios.New(scenarios.OracleLondon, netem.LTE4G, 3)

	// emptyPipeline rewires the path with a non-nil pipeline of no
	// stages on every forward link, so each packet runs the pipeline.
	emptyPipeline := func(env runner.ChaosEnv) {
		sc := wired
		sc.Seed = env.Seed
		spec := sc.Spec(new(scenarios.Wiring))
		for i := range spec.Forward {
			spec.Forward[i].Impair = netsim.Impairments{}
		}
		env.Path.Reset(spec)
	}
	zeroProbStages := func(env runner.ChaosEnv) {
		// Private stream: zero-probability stages still consume draws,
		// and the contract is that those draws never leak into the
		// scenario's randomness.
		rng := rand.New(rand.NewSource(env.Seed))
		for _, l := range env.Path.Fwd {
			l.AttachImpairments(
				netem.NewReorder(0, time.Millisecond, 2*time.Millisecond, rng),
				netem.NewDuplicate(0, time.Millisecond, rng),
				netem.NewCorrupt(0, rng),
				&netem.Outage{},
				&netem.RTTStep{},
			)
		}
	}
	for _, c := range []struct {
		name string
		sc   scenarios.Scenario
		hook func(env runner.ChaosEnv)
	}{
		{"wired/empty-pipeline", wired, emptyPipeline},
		{"wired/zero-prob-stages", wired, zeroProbStages},
		{"4g/zero-prob-stages", lte, zeroProbStages},
	} {
		base := runner.Job{Scenario: c.sc, Algo: runner.Suss, Size: 2 << 20, Observe: true}
		ref := runner.Download(base)
		if !ref.Completed {
			t.Fatalf("%s: reference flow did not complete", c.name)
		}
		j := base
		j.Impair = c.hook
		got := runner.Download(j)
		if got.FCT != ref.FCT || got.Segments != ref.Segments ||
			got.Retrans != ref.Retrans || got.RTOs != ref.RTOs || got.Delivered != ref.Delivered ||
			got.Drops != ref.Drops || got.PeakQueue != ref.PeakQueue || got.LossRate != ref.LossRate {
			t.Errorf("%s perturbed the run:\n got  fct=%v segs=%d retrans=%d rtos=%d delivered=%d drops=%d peakq=%d\n want fct=%v segs=%d retrans=%d rtos=%d delivered=%d drops=%d peakq=%d",
				c.name,
				got.FCT, got.Segments, got.Retrans, got.RTOs, got.Delivered, got.Drops, got.PeakQueue,
				ref.FCT, ref.Segments, ref.Retrans, ref.RTOs, ref.Delivered, ref.Drops, ref.PeakQueue)
		}
	}
}

// TestGiveUpOnDeadPath pins the consecutive-RTO cap end to end: a
// permanent outage starting early in the flow must yield a clean
// ErrRetransLimit flow error (not an ErrIncomplete timeout at the
// horizon, and certainly not a hang).
func TestGiveUpOnDeadPath(t *testing.T) {
	transport := HardenedTransport()
	transport.MaxConsecRTOs = 3
	j := runner.Job{
		Scenario:  scenarios.New(scenarios.OracleLondon, netem.Wired, 1),
		Algo:      runner.Cubic,
		Size:      1 << 20,
		Observe:   true,
		Transport: &transport,
		WallLimit: 10 * time.Second,
		Impair: func(env runner.ChaosEnv) {
			// Kill the last hop forever from 50 ms on.
			env.Path.Fwd[len(env.Path.Fwd)-1].AttachImpairments(&netem.Outage{Windows: []netem.Window{
				{Start: 50 * time.Millisecond, End: time.Duration(math.MaxInt64)},
			}})
		},
	}
	res := runner.Download(j)
	if res.Stall != nil {
		t.Fatalf("dead-path job hit the watchdog instead of giving up: %v", res.Stall)
	}
	if res.Completed {
		t.Fatal("flow completed through a permanent outage")
	}
	if !errors.Is(res.FlowErr, tcp.ErrRetransLimit) {
		t.Fatalf("flow error = %v, want ErrRetransLimit", res.FlowErr)
	}
	if res.Ledger.FlowAborts != 1 {
		t.Errorf("FlowAborts = %d, want 1", res.Ledger.FlowAborts)
	}
	if bad := res.Ledger.Check(); len(bad) > 0 {
		t.Errorf("ledger violations on aborted flow: %v", bad)
	}
}
