package netsim

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
)

// Reset's contract is "a reused engine is a fresh engine". These tests
// leave an engine in every awkward state a run can end in, reset it,
// and hold it to that: the state NewSimulator gives, dead handles, and
// the reference-scheduler script of TestWheelMatchesReferenceScheduler
// run on the reset engine.

// dirtyEngine is one way to leave an engine mid-life. It returns
// handles taken during that life, pending and spent alike.
type dirtyEngine struct {
	name  string
	dirty func(t *testing.T, s *Simulator) []Timer
}

func nopEvent(ctx, arg any) {}

var dirtyEngines = []dirtyEngine{
	{"halt inside a half-dispatched window", func(t *testing.T, s *Simulator) []Timer {
		// Five events in one 4 µs window; the second halts the run, and
		// arms one more into the open window on its way out.
		var hs []Timer
		for i := 0; i < 5; i++ {
			i := i
			hs = append(hs, s.ScheduleAt(time.Duration(10*tick)+time.Duration(i), func() {
				if i == 1 {
					hs = append(hs, s.ScheduleEvent(0, nopEvent, nil, nil))
					s.Halt()
				}
			}))
		}
		s.RunAll()
		if n := openWindow(s); n != 4 || !s.halted {
			t.Fatalf("setup: want a halted window holding three events and a fresh arm: %d on its list, halted %v", n, s.halted)
		}
		return hs
	}},
	{"levels 0-4 and the top level, cut by a horizon", func(t *testing.T, s *Simulator) []Timer {
		var hs []Timer
		for _, d := range []time.Duration{
			time.Microsecond, 8 * time.Microsecond, // fired / left in the window by the horizon
			20 * time.Microsecond, time.Millisecond, 50 * time.Millisecond, 5 * time.Second, 10 * time.Minute, // levels 0–4
			3 * time.Hour, time.Duration(math.MaxInt64 / 2), time.Duration(math.MaxInt64), // levels 5 and 8
		} {
			hs = append(hs, s.ScheduleEvent(d, nopEvent, nil, nil))
		}
		hs = append(hs, s.ScheduleEvent(8*time.Microsecond+1, nopEvent, nil, nil))
		hs[len(hs)-2].Stop() // a stopped top-level timer
		s.Run(8 * time.Microsecond)
		for _, lvl := range []int{0, 1, 2, 3, 4, 5, wheelLevels - 1} {
			if s.occ[lvl] == 0 {
				t.Fatalf("setup: wheel level %d is empty", lvl)
			}
		}
		if openWindow(s) != 1 {
			t.Fatalf("setup: want a window cut by the horizon, one event left on its list")
		}
		return hs
	}},
	{"StopWhen installed and fired", func(t *testing.T, s *Simulator) []Timer {
		hs := []Timer{s.ScheduleEvent(time.Millisecond, nopEvent, nil, nil), s.ScheduleEvent(time.Second, nopEvent, nil, nil)}
		s.StopWhen(func() bool { return true })
		s.RunAll()
		if s.Pending() != 1 {
			t.Fatalf("setup: %d pending, want 1", s.Pending())
		}
		return hs
	}},
	{"a link's line holds packets, its head timer armed", func(t *testing.T, s *Simulator) []Timer {
		l := NewLink(s, LinkConfig{Name: "l", Rate: 1e9, Delay: 50 * time.Millisecond}, &sink{id: 1, sim: s})
		for i := 0; i < 5; i++ {
			p := s.Pool().Get()
			p.Size, p.Seq, p.Dst = 1500, int64(i), 1
			l.Enqueue(p)
		}
		s.Run(time.Millisecond) // all five serialized, none arrived
		if l.line.head == nil || s.Pending() != 1 {
			t.Fatalf("setup: want a busy line and only its head timer pending, %d pending", s.Pending())
		}
		var hs []Timer
		for i := range s.slots {
			if sl := &s.slots[i]; sl.bucket != bucketNone {
				hs = append(hs, Timer{s: s, idx: int32(i), gen: sl.gen})
			}
		}
		return hs
	}},
	{"a callback panicked mid-Run", func(t *testing.T, s *Simulator) []Timer {
		var hs []Timer
		for i := 0; i < 4; i++ {
			i := i
			hs = append(hs, s.ScheduleAt(time.Duration(3*tick), func() {
				if i == 1 {
					panic("boom")
				}
			}))
		}
		hs = append(hs, s.ScheduleEvent(time.Second, nopEvent, nil, nil))
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("setup: the callback did not panic")
				}
			}()
			s.RunAll()
		}()
		return hs
	}},
}

func TestResetDirtyEngines(t *testing.T) {
	ops := 60_000
	if testing.Short() {
		ops = 15_000
	}
	for _, d := range dirtyEngines {
		t.Run(d.name, func(t *testing.T) {
			s := NewSimulator()
			// A packet still out and one on the free list: the pool is
			// dirty too.
			held := s.Pool().Get()
			s.Pool().Get().Release()
			hs := d.dirty(t, s)
			fired, placed, slots, pkts := s.Fired, s.Placed, len(s.slots), s.pool.peak

			s.Reset()
			assertFreshState(t, s)
			assertDead(t, hs)
			if fired == 0 || placed == 0 || s.ArenaSlots != slots || s.PoolPackets != pkts || s.PoolSlabs != 1 {
				t.Errorf("counters after Reset: fired before %d, placed %d; ArenaSlots %d (arena %d), PoolPackets %d (peak %d), PoolSlabs %d — high-waters must survive",
					fired, placed, s.ArenaSlots, slots, s.PoolPackets, pkts, s.PoolSlabs)
			}
			if p := s.Pool().Get(); p != held && !debugSequester {
				t.Errorf("first packet of the new life is %p, want the first slab packet %p", p, held)
			}
			s.Reset()

			wheelScript(t, []int64{1}, ops, func() *Simulator { return s })
			assertDead(t, hs) // the new life reused their slots; they stay dead
		})
	}
}

// openWindow counts the events on the cursor's level-0 list, the
// window Run fires from.
func openWindow(s *Simulator) int {
	n := 0
	for i := s.bhead[uint64(s.cur)&wheelMask]; i >= 0; i = s.slots[i].next {
		n++
	}
	return n
}

// assertFreshState holds a reset engine to what NewSimulator gives,
// field by field, and its free lists to fresh hand-out order.
func assertFreshState(t *testing.T, s *Simulator) {
	t.Helper()
	f := NewSimulator()
	if s.now != f.now || s.seq != f.seq || s.halted != f.halted || s.stopWhen != nil ||
		s.cur != f.cur || s.occ != f.occ || s.bhead != f.bhead || s.btail != f.btail ||
		s.npending != f.npending || s.Fired != 0 || s.Placed != 0 || s.Cascades != 0 {
		t.Errorf("reset engine differs from a new one: %+v", *s)
	}
	if s.Pool().Stats() != (PoolStats{}) || len(s.pool.free) != 0 || s.pool.used != 0 {
		t.Errorf("reset pool: stats %+v, %d on the free list, %d used", s.Pool().Stats(), len(s.pool.free), s.pool.used)
	}
	if at, ok := nextEventAt(s); ok {
		t.Errorf("reset engine has an event pending at %v", at)
	}
	// Slots come out 0, 1, 2 … like a fresh arena's appends.
	if len(s.free) != len(s.slots) {
		t.Fatalf("free list holds %d of %d slots", len(s.free), len(s.slots))
	}
	for k, idx := range s.free {
		if want := int32(len(s.slots) - 1 - k); idx != want {
			t.Fatalf("free[%d] = %d, want %d", k, idx, want)
		}
		if sl := &s.slots[idx]; sl.bucket != bucketNone || sl.fn != nil || sl.ctx != nil || sl.arg != nil {
			t.Fatalf("slot %d not released: %+v", idx, *sl)
		}
	}
}

// assertDead: a handle from a previous life reads spent and never
// panics or touches the timer that now lives in its slot.
func assertDead(t *testing.T, hs []Timer) {
	t.Helper()
	for i, h := range hs {
		if h.Active() {
			t.Errorf("handle %d from before Reset is Active", i)
		}
		if h.Stop() {
			t.Errorf("handle %d from before Reset: Stop reported a cancellation", i)
		}
		if _, ok := h.Reset(time.Millisecond); ok {
			t.Errorf("handle %d from before Reset: Reset rearmed it", i)
		}
	}
}

// TestResetKeepsStaleHandleOffNewTimer: the slot of a timer pending at
// Reset is reused by the next life; the old handle must not be able to
// cancel the new timer.
func TestResetKeepsStaleHandleOffNewTimer(t *testing.T) {
	s := NewSimulator()
	old := s.ScheduleEvent(time.Second, nopEvent, nil, nil)
	s.Reset()
	fired := false
	fresh := s.Schedule(time.Second, func() { fired = true })
	if fresh.idx != old.idx {
		t.Fatalf("new life armed slot %d, want the old handle's slot %d", fresh.idx, old.idx)
	}
	if old.Stop() || old.Active() {
		t.Fatal("a handle from before Reset reached the next life's timer")
	}
	s.RunAll()
	if !fired || s.Fired != 1 {
		t.Fatalf("fired %v, Fired = %d", fired, s.Fired)
	}
}

// TestPoolResetRestoresAddressOrder: whatever order one life released
// its packets in, the next gets them in slab (address) order, exactly
// as a fresh pool hands them out, counts none of them as recycled, and
// allocates nothing until it needs more than the engine ever held.
func TestPoolResetRestoresAddressOrder(t *testing.T) {
	if debugSequester {
		t.Skip("sussdebug: released packets are sequestered, every Get takes a new one")
	}
	s := NewSimulator()
	pool := s.Pool()
	const n = 200 // past the doubling slabs: 8+16+32+64+64…
	first := make([]*Packet, n)
	for i := range first {
		first[i] = pool.Get()
	}
	for i := range first { // release scrambled; a few are never released
		if j := (i*7 + 3) % n; j%10 != 0 {
			first[j].Release()
		}
	}
	pool.Get() // one recycled Get, so Recycled is not trivially zero
	if pool.Stats().Recycled != 1 {
		t.Fatalf("Recycled = %d, want 1", pool.Stats().Recycled)
	}
	s.Run(0)
	slabs := s.PoolSlabs

	s.Reset()
	// The count is process-wide, so count with the collector off and on
	// one P, as testing.AllocsPerRun does: the collector's allocations,
	// and the test harness's goroutines finishing the previous test on
	// another P (16 to 2 048 bytes, about once in 20 000 runs), would
	// land in it.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range first {
		if p := pool.Get(); p != first[i] {
			t.Fatalf("packet %d of the second life is %p, the first life's was %p", i, p, first[i])
		}
	}
	runtime.ReadMemStats(&after)
	if d := after.Mallocs - before.Mallocs; d != 0 {
		t.Errorf("a second life no larger than the first allocated %d times", d)
	}
	if st := pool.Stats(); st.Recycled != 0 || st.Acquired != n {
		t.Errorf("second life's stats %+v: want %d acquired, none recycled", st, n)
	}
	s.Run(0)
	if s.PoolSlabs != slabs || s.PoolPackets != n {
		t.Errorf("PoolSlabs %d (was %d), PoolPackets %d, want %d", s.PoolSlabs, slabs, s.PoolPackets, n)
	}
}
