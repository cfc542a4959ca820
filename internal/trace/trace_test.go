package trace

import (
	"strings"
	"testing"
	"time"

	"suss/internal/cubic"
	"suss/internal/netsim"
	"suss/internal/tcp"
)

func runTracedFlow(t *testing.T, every time.Duration) *FlowTrace {
	t.Helper()
	sim := netsim.NewSimulator()
	p := netsim.NewPath(sim, netsim.PathSpec{Forward: []netsim.LinkConfig{
		{Name: "core", Rate: 1e9, Delay: 10 * time.Millisecond, QueueBytes: 16 << 20},
		{Name: "bneck", Rate: 1e8, Delay: 10 * time.Millisecond, QueueBytes: 1 << 20},
	}})
	f := tcp.NewFlow(sim, tcp.DefaultConfig(), 1, p.Sender, tcp.NewDemux(p.Sender), p.Receiver, tcp.NewDemux(p.Receiver), 2<<20, nil)
	f.Sender.SetController(cubic.New(f.Sender, cubic.DefaultOptions()))
	tr := Attach(f.Sender, every)
	f.StartAt(sim, 0)
	sim.Run(time.Minute)
	if !f.Done() {
		t.Fatal("flow did not complete")
	}
	return tr
}

func TestAttachRecordsSamples(t *testing.T) {
	tr := runTracedFlow(t, 0)
	if len(tr.Samples) == 0 {
		t.Fatal("no samples")
	}
	// Samples must be time-ordered with monotonic delivery.
	for i := 1; i < len(tr.Samples); i++ {
		if tr.Samples[i].T < tr.Samples[i-1].T {
			t.Fatal("samples out of order")
		}
		if tr.Samples[i].Delivered < tr.Samples[i-1].Delivered {
			t.Fatal("delivered went backwards")
		}
	}
	last := tr.Samples[len(tr.Samples)-1]
	if last.Delivered != 2<<20 {
		t.Errorf("final delivered = %d", last.Delivered)
	}
}

func TestSamplingRateBound(t *testing.T) {
	dense := runTracedFlow(t, 0)
	sparse := runTracedFlow(t, 50*time.Millisecond)
	if len(sparse.Samples) >= len(dense.Samples) {
		t.Errorf("rate limit did not reduce samples: %d vs %d", len(sparse.Samples), len(dense.Samples))
	}
	for i := 1; i < len(sparse.Samples); i++ {
		if gap := sparse.Samples[i].T - sparse.Samples[i-1].T; gap < 50*time.Millisecond {
			t.Fatalf("gap %v below sampling interval", gap)
		}
	}
}

func TestAtAndQueries(t *testing.T) {
	tr := runTracedFlow(t, 0)
	mid := tr.At(500 * time.Millisecond)
	if mid.T > 500*time.Millisecond {
		t.Errorf("At returned sample from the future: %v", mid.T)
	}
	tt, ok := tr.TimeToDeliver(1 << 20)
	if !ok || tt <= 0 {
		t.Errorf("TimeToDeliver = %v/%v", tt, ok)
	}
	if _, ok := tr.TimeToDeliver(1 << 40); ok {
		t.Error("TimeToDeliver reported an impossible volume")
	}
	ct, ok := tr.TimeToCwnd(20 * 1448)
	if !ok || ct <= 0 {
		t.Errorf("TimeToCwnd = %v/%v", ct, ok)
	}
}

// Regression: Attach used to overwrite any OnAckTrace hook already on
// the sender, so a second observer silently killed the first. Both must
// record.
func TestAttachChainsObservers(t *testing.T) {
	sim := netsim.NewSimulator()
	p := netsim.NewPath(sim, netsim.PathSpec{Forward: []netsim.LinkConfig{
		{Name: "core", Rate: 1e9, Delay: 10 * time.Millisecond, QueueBytes: 16 << 20},
		{Name: "bneck", Rate: 1e8, Delay: 10 * time.Millisecond, QueueBytes: 1 << 20},
	}})
	f := tcp.NewFlow(sim, tcp.DefaultConfig(), 1, p.Sender, tcp.NewDemux(p.Sender), p.Receiver, tcp.NewDemux(p.Receiver), 1<<20, nil)
	f.Sender.SetController(cubic.New(f.Sender, cubic.DefaultOptions()))
	dense := Attach(f.Sender, 0)
	sparse := Attach(f.Sender, 50*time.Millisecond)
	f.StartAt(sim, 0)
	sim.Run(time.Minute)
	if !f.Done() {
		t.Fatal("flow did not complete")
	}
	if len(dense.Samples) == 0 {
		t.Fatal("first-attached observer recorded nothing — Attach clobbered its hook")
	}
	if len(sparse.Samples) == 0 {
		t.Fatal("second-attached observer recorded nothing")
	}
	// Each keeps its own sampling policy on the shared event stream.
	if len(sparse.Samples) >= len(dense.Samples) {
		t.Errorf("chained observers lost independent rate limits: dense=%d sparse=%d",
			len(dense.Samples), len(sparse.Samples))
	}
	if dense.Samples[len(dense.Samples)-1].Delivered != 1<<20 {
		t.Errorf("dense final delivered = %d", dense.Samples[len(dense.Samples)-1].Delivered)
	}
}

func TestQueriesOnEmptyTrace(t *testing.T) {
	tr := &FlowTrace{}
	if s := tr.At(time.Second); s != (Sample{}) {
		t.Errorf("At on empty trace = %+v, want zero Sample", s)
	}
	if _, ok := tr.TimeToDeliver(1); ok {
		t.Error("TimeToDeliver on empty trace reported success")
	}
	if _, ok := tr.TimeToCwnd(1); ok {
		t.Error("TimeToCwnd on empty trace reported success")
	}
}

func TestAtExactBoundary(t *testing.T) {
	tr := &FlowTrace{Samples: []Sample{
		{T: 10 * time.Millisecond, CwndBytes: 100, Delivered: 1000},
		{T: 20 * time.Millisecond, CwndBytes: 200, Delivered: 2000},
		{T: 30 * time.Millisecond, CwndBytes: 300, Delivered: 3000},
	}}
	// t exactly on a sample returns that sample, not its predecessor.
	if s := tr.At(20 * time.Millisecond); s.CwndBytes != 200 {
		t.Errorf("At(boundary) = %+v, want the t=20ms sample", s)
	}
	// t before the first sample has nothing to report.
	if s := tr.At(5 * time.Millisecond); s != (Sample{}) {
		t.Errorf("At(before first) = %+v, want zero Sample", s)
	}
	// t after the last clamps to the last.
	if s := tr.At(time.Hour); s.CwndBytes != 300 {
		t.Errorf("At(after last) = %+v, want the final sample", s)
	}
	// Thresholds met exactly count as reached; unreachable ones do not.
	if tt, ok := tr.TimeToDeliver(2000); !ok || tt != 20*time.Millisecond {
		t.Errorf("TimeToDeliver(exact) = %v/%v", tt, ok)
	}
	if _, ok := tr.TimeToDeliver(3001); ok {
		t.Error("TimeToDeliver beyond final volume reported success")
	}
	if ct, ok := tr.TimeToCwnd(300); !ok || ct != 30*time.Millisecond {
		t.Errorf("TimeToCwnd(exact) = %v/%v", ct, ok)
	}
	if _, ok := tr.TimeToCwnd(301); ok {
		t.Error("TimeToCwnd beyond max cwnd reported success")
	}
}

func TestWriteCSV(t *testing.T) {
	tr := runTracedFlow(t, 10*time.Millisecond)
	var b strings.Builder
	if err := tr.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "t_ms,cwnd_bytes,srtt_ms,delivered_bytes\n") {
		t.Error("missing CSV header")
	}
	if strings.Count(out, "\n") != len(tr.Samples)+1 {
		t.Errorf("row count mismatch: %d lines for %d samples", strings.Count(out, "\n"), len(tr.Samples))
	}
}
