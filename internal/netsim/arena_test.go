package netsim

import (
	"testing"
	"time"
	"unsafe"
)

// The timer arena recycles slots through generations; these tests pin
// the handle semantics and the exactness of Pending.

// Every pending event pays for its slot; 72 B is deadline + seq +
// callback triple + generation and list links, with no room for a
// second ordering key to creep back in.
func TestTimerSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(timerSlot{}); got != 72 {
		t.Fatalf("unsafe.Sizeof(timerSlot{}) = %d, want 72", got)
	}
}

// Every packet in flight pays for a Packet; 152 B is 32 of header
// fields, the 80-byte inline frame, the three one-byte fields sharing
// a word, and 32 of queue links and pool.
func TestPacketSize(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got != 152 {
		t.Fatalf("unsafe.Sizeof(Packet{}) = %d, want 152", got)
	}
}

func TestStopRemovesFromHeapImmediately(t *testing.T) {
	s := NewSimulator()
	var timers []Timer
	for i := 0; i < 10; i++ {
		timers = append(timers, s.Schedule(time.Duration(i+1)*time.Millisecond, func() {}))
	}
	if s.Pending() != 10 {
		t.Fatalf("Pending() = %d, want 10", s.Pending())
	}
	// Cancel from the middle: the count must drop at Stop time, not at
	// pop time.
	for i := 2; i < 7; i++ {
		if !timers[i].Stop() {
			t.Fatalf("Stop of pending timer %d returned false", i)
		}
	}
	if s.Pending() != 5 {
		t.Fatalf("Pending() after 5 Stops = %d, want 5 (exact count)", s.Pending())
	}
	s.RunAll()
	if s.Pending() != 0 {
		t.Fatalf("Pending() after drain = %d, want 0", s.Pending())
	}
}

func TestStopOfRecycledHandleIsNoop(t *testing.T) {
	s := NewSimulator()
	fired := 0
	// Fire a timer; its slot goes back to the free list.
	old := s.Schedule(time.Millisecond, func() { fired++ })
	s.RunAll()
	// Schedule a new timer, which recycles the slot the old handle
	// still points at.
	s.Schedule(time.Millisecond, func() { fired++ })
	if old.Active() {
		t.Fatal("stale handle reports Active after its slot was recycled")
	}
	if old.Stop() {
		t.Fatal("Stop via a stale handle cancelled a recycled timer")
	}
	s.RunAll()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2 (recycled timer must fire despite stale Stop)", fired)
	}
}

func TestStopInsideOwnCallback(t *testing.T) {
	s := NewSimulator()
	var tm Timer
	tm = s.Schedule(time.Millisecond, func() {
		if tm.Active() {
			t.Error("timer reports Active inside its own callback")
		}
		if tm.Stop() {
			t.Error("Stop inside own callback reported cancellation")
		}
	})
	s.RunAll()
}

func TestZeroValueTimer(t *testing.T) {
	var tm Timer
	if tm.Active() || tm.Stop() {
		t.Fatal("zero-value Timer must be inert")
	}
}

// TestNowAfterEveryStopMode pins the clock semantics of Run for each
// of the four stop modes: queue drain, horizon, Halt, and StopWhen —
// including StopWhen firing mid-instant, where Now() must equal the
// fired event's time even though later same-instant events remain.
func TestNowAfterEveryStopMode(t *testing.T) {
	t.Run("drain", func(t *testing.T) {
		s := NewSimulator()
		s.Schedule(5*time.Millisecond, func() {})
		s.Schedule(9*time.Millisecond, func() {})
		if end := s.RunAll(); end != 9*time.Millisecond || s.Now() != 9*time.Millisecond {
			t.Fatalf("drain: Run=%v Now=%v, want 9ms", end, s.Now())
		}
	})
	t.Run("horizon", func(t *testing.T) {
		s := NewSimulator()
		s.Schedule(20*time.Millisecond, func() {})
		if end := s.Run(12 * time.Millisecond); end != 12*time.Millisecond || s.Now() != 12*time.Millisecond {
			t.Fatalf("horizon: Run=%v Now=%v, want 12ms", end, s.Now())
		}
	})
	t.Run("horizon-in-past-never-rewinds", func(t *testing.T) {
		s := NewSimulator()
		s.Schedule(10*time.Millisecond, func() {})
		s.RunAll()
		if end := s.Run(3 * time.Millisecond); end != 10*time.Millisecond || s.Now() != 10*time.Millisecond {
			t.Fatalf("past horizon: Run=%v Now=%v, want clock held at 10ms", end, s.Now())
		}
	})
	t.Run("halt", func(t *testing.T) {
		s := NewSimulator()
		s.Schedule(4*time.Millisecond, func() { s.Halt() })
		s.Schedule(8*time.Millisecond, func() { t.Error("event after Halt ran") })
		if end := s.RunAll(); end != 4*time.Millisecond || s.Now() != 4*time.Millisecond {
			t.Fatalf("halt: Run=%v Now=%v, want 4ms", end, s.Now())
		}
	})
	t.Run("stopwhen-mid-instant", func(t *testing.T) {
		s := NewSimulator()
		hit := 0
		// Three events at the same instant; the predicate fires after
		// the first.
		for i := 0; i < 3; i++ {
			s.Schedule(6*time.Millisecond, func() { hit++ })
		}
		s.StopWhen(func() bool { return hit >= 1 })
		if end := s.RunAll(); end != 6*time.Millisecond || s.Now() != 6*time.Millisecond {
			t.Fatalf("stopwhen: Run=%v Now=%v, want 6ms (the fired event's time)", end, s.Now())
		}
		if hit != 1 {
			t.Fatalf("stopwhen: %d events ran, want 1", hit)
		}
		// Remaining same-instant events must survive for a later Run.
		s.StopWhen(nil)
		s.RunAll()
		if hit != 3 {
			t.Fatalf("stopwhen: %d events ran after resume, want 3", hit)
		}
	})
}

// --- allocation gates ---
//
// These AllocsPerRun gates run under plain `go test ./...` (tier-1),
// so a regression that reintroduces per-event or per-packet
// allocations fails CI. They are skipped under sussdebug, where the
// pool deliberately sequesters instead of recycling.

func TestScheduleEventZeroAlloc(t *testing.T) {
	if debugSequester {
		t.Skip("sussdebug: pool sequesters, steady state allocates by design")
	}
	s := NewSimulator()
	n := 0
	var tick EventFunc
	tick = func(ctx, arg any) { n++ }
	allocs := testing.AllocsPerRun(500, func() {
		s.ScheduleEvent(time.Millisecond, tick, nil, nil)
		s.ScheduleEvent(2*time.Millisecond, tick, nil, nil).Stop()
		s.RunAll()
	})
	if allocs > 0 {
		t.Errorf("schedule/stop/fire cycle allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestPacketPoolZeroAlloc(t *testing.T) {
	if debugSequester {
		t.Skip("sussdebug: pool sequesters, steady state allocates by design")
	}
	s := NewSimulator()
	pool := s.Pool()
	allocs := testing.AllocsPerRun(500, func() {
		p := pool.Get()
		p.Size = 1500
		p.Release()
	})
	if allocs > 0 {
		t.Errorf("packet get/release cycle allocates %.1f allocs/op, want 0", allocs)
	}
	st := pool.Stats()
	if st.Outstanding() != 0 {
		t.Errorf("outstanding = %d, want 0", st.Outstanding())
	}
	if st.Recycled == 0 {
		t.Error("free list never recycled a packet")
	}
}

// TestLinkPipelineZeroAlloc drives pooled packets through a link's
// full serialize→propagate→deliver pipeline and requires the steady
// state to be allocation-free (no per-event closures, no per-enqueue
// queue nodes).
func TestLinkPipelineZeroAlloc(t *testing.T) {
	if debugSequester {
		t.Skip("sussdebug: pool sequesters, steady state allocates by design")
	}
	s := NewSimulator()
	snk := &sink{id: 1, sim: s}
	l := NewLink(s, LinkConfig{Name: "pipe", Rate: 1e9, Delay: time.Millisecond}, snk)
	pool := s.Pool()
	// Warm the pool and the timer arena past their growth phase.
	for i := 0; i < 64; i++ {
		p := pool.Get()
		p.Size = 1500
		p.Dst = 1
		l.Enqueue(p)
	}
	s.RunAll()
	for _, p := range snk.pkts {
		p.Release()
	}
	snk.pkts, snk.at = snk.pkts[:0], snk.at[:0]

	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 4; i++ {
			p := pool.Get()
			p.Size = 1500
			p.Dst = 1
			l.Enqueue(p)
		}
		s.RunAll()
		for _, p := range snk.pkts {
			p.Release()
		}
		snk.pkts, snk.at = snk.pkts[:0], snk.at[:0]
	})
	// The sink's append may occasionally grow; everything else must be
	// allocation-free.
	if allocs > 0 {
		t.Errorf("link pipeline allocates %.1f allocs/op, want 0", allocs)
	}
}
