package netsim

import (
	"math/rand"
	"testing"
	"time"
)

// --- differential property test ---
//
// A reference scheduler with the documented semantics, implemented
// the dumbest possible way: a flat slice scanned for the (at, seq)
// minimum. The wheel must be observationally identical to it over
// millions of random arm/cancel/reset/advance operations — firing
// order, clock, Pending, and every Stop/Reset return value.

type refTimer struct {
	at  time.Duration
	seq uint64
	id  int
	pos int // index into refSched.alive, -1 when dead
}

type refSched struct {
	now    time.Duration
	seq    uint64
	timers []refTimer
	alive  []int // handles of live timers, unordered (swap-remove)
}

func (r *refSched) schedule(at time.Duration, id int) int {
	if at < r.now {
		at = r.now
	}
	h := len(r.timers)
	r.timers = append(r.timers, refTimer{at: at, seq: r.seq, id: id, pos: len(r.alive)})
	r.alive = append(r.alive, h)
	r.seq++
	return h
}

func (r *refSched) remove(h int) {
	p := r.timers[h].pos
	last := r.alive[len(r.alive)-1]
	r.alive[p] = last
	r.timers[last].pos = p
	r.alive = r.alive[:len(r.alive)-1]
	r.timers[h].pos = -1
}

func (r *refSched) stop(h int) bool {
	if r.timers[h].pos < 0 {
		return false
	}
	r.remove(h)
	return true
}

func (r *refSched) reset(h int, d time.Duration) bool {
	t := &r.timers[h]
	if t.pos < 0 {
		return false
	}
	if d < 0 {
		d = 0
	}
	t.at, t.seq = r.now+d, r.seq
	r.seq++
	return true
}

func (r *refSched) pending() int { return len(r.alive) }

func (r *refSched) run(until time.Duration, fire func(id int)) time.Duration {
	for {
		best := -1
		for _, h := range r.alive {
			t := &r.timers[h]
			if best < 0 || t.at < r.timers[best].at ||
				(t.at == r.timers[best].at && t.seq < r.timers[best].seq) {
				best = h
			}
		}
		if best < 0 {
			return r.now
		}
		if r.timers[best].at > until {
			if until > r.now {
				r.now = until
			}
			return r.now
		}
		r.now = r.timers[best].at
		r.remove(best)
		fire(r.timers[best].id)
	}
}

type fireRecorder struct{ got []int }

func recordFireEv(ctx, arg any) {
	rec := ctx.(*fireRecorder)
	rec.got = append(rec.got, arg.(int))
}

// randomDelay draws from a mixture that exercises every wheel level,
// exact ties, zero delays, and the overflow list.
func randomDelay(rng *rand.Rand) time.Duration {
	switch rng.Intn(10) {
	case 0:
		return 0
	case 1:
		return time.Duration(rng.Intn(wheelSlots)) // level 0
	case 2:
		return time.Duration(rng.Intn(4096)) // levels 0–1
	case 3, 4:
		return time.Duration(rng.Intn(int(time.Millisecond))) // ≤ level 3
	case 5, 6:
		return time.Duration(rng.Intn(int(time.Second))) // ≤ level 5
	case 7:
		return time.Duration(rng.Intn(int(time.Hour))) // level 6
	case 8:
		return time.Duration(wheelSpan) + time.Duration(rng.Intn(int(time.Hour))) // overflow
	default:
		return time.Duration(rng.Int63n(int64(10 * time.Second)))
	}
}

func TestWheelMatchesReferenceScheduler(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	ops := 250_000
	if testing.Short() {
		seeds, ops = seeds[:1], 50_000
	}
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		sim := NewSimulator()
		ref := &refSched{}
		rec := &fireRecorder{}
		var refFired []int

		var handles []Timer // wheel handles, index-aligned with ref handles
		live := 0
		var lastAt time.Duration

		for op := 0; op < ops; op++ {
			choice := rng.Intn(100)
			if live > 256 && choice < 60 {
				choice = 60 + rng.Intn(40) // drain: force stop/run ops
			}
			switch {
			case choice < 45: // arm
				var at time.Duration
				if choice < 5 && lastAt >= sim.Now() {
					at = lastAt // exact tie with an earlier arm
				} else {
					at = sim.Now() + randomDelay(rng)
				}
				lastAt = at
				id := len(handles)
				handles = append(handles, sim.ScheduleEventAt(at, recordFireEv, rec, id))
				ref.schedule(at, id)
				live++
			case choice < 60: // reset a random handle, stale ones included
				if len(handles) == 0 {
					continue
				}
				h := rng.Intn(len(handles))
				d := randomDelay(rng)
				nt, ok := handles[h].Reset(d)
				if ok {
					handles[h] = nt
				}
				if refOK := ref.reset(h, d); ok != refOK {
					t.Fatalf("seed %d op %d: Reset(%d) = %v, reference %v", seed, op, h, ok, refOK)
				}
			case choice < 80: // stop a random handle, stale ones included
				if len(handles) == 0 {
					continue
				}
				h := rng.Intn(len(handles))
				ok := handles[h].Stop()
				if refOK := ref.stop(h); ok != refOK {
					t.Fatalf("seed %d op %d: Stop(%d) = %v, reference %v", seed, op, h, ok, refOK)
				}
				if ok {
					live--
				}
			default: // advance
				var until time.Duration
				if rng.Intn(20) == 0 {
					until = time.Duration(1<<63 - 1) // RunAll
				} else {
					until = sim.Now() + time.Duration(rng.Int63n(int64(2*time.Second)))
				}
				end := sim.Run(until)
				refEnd := ref.run(until, func(id int) { refFired = append(refFired, id) })
				if end != refEnd || sim.Now() != ref.now {
					t.Fatalf("seed %d op %d: Run(%v) = %v now %v, reference %v now %v",
						seed, op, until, end, sim.Now(), refEnd, ref.now)
				}
				live = ref.pending()
			}
			if sim.Pending() != ref.pending() {
				t.Fatalf("seed %d op %d: Pending() = %d, reference %d", seed, op, sim.Pending(), ref.pending())
			}
		}
		sim.RunAll()
		ref.run(time.Duration(1<<63-1), func(id int) { refFired = append(refFired, id) })
		if len(rec.got) != len(refFired) {
			t.Fatalf("seed %d: fired %d events, reference fired %d", seed, len(rec.got), len(refFired))
		}
		for i := range rec.got {
			if rec.got[i] != refFired[i] {
				t.Fatalf("seed %d: firing order diverges at %d: got id %d, reference id %d",
					seed, i, rec.got[i], refFired[i])
			}
		}
	}
}

// --- same-deadline FIFO regression ---

// TestSameDeadlineFIFOAcrossLevels pins the tie-break rule the golden
// CSVs depend on: events sharing a deadline fire in arm order even
// when they reach the level-0 bucket by different routes. The
// early-armed timer lands at a high wheel level and is cascaded into
// the bucket after the late-armed timer was inserted directly — raw
// bucket order would fire them backwards.
func TestSameDeadlineFIFOAcrossLevels(t *testing.T) {
	s := NewSimulator()
	rec := &fireRecorder{}
	deadline := 300 * time.Millisecond

	s.ScheduleEventAt(deadline, recordFireEv, rec, 0) // level 4 at arm time

	// Advance close to the deadline so later arms land at lower levels.
	s.Schedule(250*time.Millisecond, func() {})
	s.Run(250 * time.Millisecond)
	s.ScheduleEventAt(deadline, recordFireEv, rec, 1) // mid level

	s.Schedule(deadline-100*time.Nanosecond, func() {})
	s.Run(deadline - 100*time.Nanosecond)
	s.ScheduleEventAt(deadline, recordFireEv, rec, 2) // level 0, direct

	// Armed during the batch itself: same instant, must fire last.
	s.ScheduleEventAt(deadline, runClosure, func() {
		s.ScheduleEventAt(deadline, recordFireEv, rec, 3)
	}, nil)

	s.RunAll()
	want := []int{0, 1, 2, 3}
	if len(rec.got) != len(want) {
		t.Fatalf("fired %v, want %v", rec.got, want)
	}
	for i := range want {
		if rec.got[i] != want[i] {
			t.Fatalf("same-deadline events fired out of arm order: %v, want %v", rec.got, want)
		}
	}
}

// --- overflow list ---

func TestOverflowFarFutureDeadlines(t *testing.T) {
	s := NewSimulator()
	rec := &fireRecorder{}
	far := time.Duration(wheelSpan) * 3 / 2 // beyond the wheel span
	s.ScheduleEventAt(far, recordFireEv, rec, 0)
	s.ScheduleEventAt(far+time.Nanosecond, recordFireEv, rec, 1)
	tm := s.ScheduleEventAt(far+2*time.Nanosecond, recordFireEv, rec, 2)
	s.ScheduleEvent(time.Millisecond, recordFireEv, rec, 3)
	if s.Pending() != 4 {
		t.Fatalf("Pending() = %d, want 4", s.Pending())
	}
	if !tm.Stop() {
		t.Fatal("Stop of overflow-resident timer failed")
	}
	// Horizon far beyond the near event but before the overflow events.
	if end := s.Run(far - time.Second); end != far-time.Second {
		t.Fatalf("Run = %v, want %v", end, far-time.Second)
	}
	s.RunAll()
	want := []int{3, 0, 1}
	if len(rec.got) != len(want) {
		t.Fatalf("fired %v, want %v", rec.got, want)
	}
	for i := range want {
		if rec.got[i] != want[i] {
			t.Fatalf("fired %v, want %v", rec.got, want)
		}
	}
	if s.Now() != far+time.Nanosecond {
		t.Errorf("Now() = %v, want %v", s.Now(), far+time.Nanosecond)
	}
}

// TestOverflowMinInvalidation stops the earliest overflow timer and
// checks the cached minimum is recomputed, not reused.
func TestOverflowMinInvalidation(t *testing.T) {
	s := NewSimulator()
	rec := &fireRecorder{}
	far := time.Duration(wheelSpan) * 2
	early := s.ScheduleEventAt(far, recordFireEv, rec, 0)
	s.ScheduleEventAt(far+time.Hour, recordFireEv, rec, 1)
	early.Stop()
	s.RunAll()
	if len(rec.got) != 1 || rec.got[0] != 1 {
		t.Fatalf("fired %v, want [1]", rec.got)
	}
	if s.Now() != far+time.Hour {
		t.Errorf("Now() = %v, want %v", s.Now(), far+time.Hour)
	}
}

// --- Timer.Reset ---

func TestResetRearmsInPlace(t *testing.T) {
	s := NewSimulator()
	fired := 0
	tm := s.Schedule(time.Millisecond, func() { fired++ })
	nt, ok := tm.Reset(5 * time.Millisecond)
	if !ok {
		t.Fatal("Reset of a pending timer failed")
	}
	if tm.Active() || tm.Stop() {
		t.Fatal("pre-Reset handle must be stale")
	}
	if !nt.Active() {
		t.Fatal("post-Reset handle must be active")
	}
	s.Run(4 * time.Millisecond)
	if fired != 0 {
		t.Fatal("reset timer fired at its old deadline")
	}
	s.RunAll()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if s.Now() != 5*time.Millisecond {
		t.Errorf("Now() = %v, want 5ms", s.Now())
	}
}

// TestResetTakesFreshSeq pins the ordering equivalence with
// Stop+Schedule: a reset timer re-enters the same-deadline FIFO at
// the back, exactly where a freshly scheduled timer would.
func TestResetTakesFreshSeq(t *testing.T) {
	s := NewSimulator()
	rec := &fireRecorder{}
	tm := s.ScheduleEvent(time.Millisecond, recordFireEv, rec, 0)
	s.ScheduleEvent(2*time.Millisecond, recordFireEv, rec, 1)
	if _, ok := tm.Reset(2 * time.Millisecond); !ok {
		t.Fatal("Reset failed")
	}
	s.RunAll()
	if len(rec.got) != 2 || rec.got[0] != 1 || rec.got[1] != 0 {
		t.Fatalf("fired %v, want [1 0] (reset timer joins the tie-break queue last)", rec.got)
	}
}

func TestResetDeadTimerIsNoop(t *testing.T) {
	s := NewSimulator()
	fired := 0
	tm := s.Schedule(time.Millisecond, func() { fired++ })
	s.RunAll()
	if _, ok := tm.Reset(time.Millisecond); ok {
		t.Fatal("Reset of a fired timer succeeded")
	}
	var zero Timer
	if _, ok := zero.Reset(time.Millisecond); ok {
		t.Fatal("Reset of the zero-value Timer succeeded")
	}
	tm2 := s.Schedule(time.Millisecond, func() { fired++ })
	tm2.Stop()
	if _, ok := tm2.Reset(time.Millisecond); ok {
		t.Fatal("Reset of a stopped timer succeeded")
	}
	// The recycled-slot case: tm's slot is reused by tm3; the stale tm
	// handle must not rearm tm3.
	tm3 := s.Schedule(time.Millisecond, func() { fired++ })
	if _, ok := tm.Reset(time.Hour); ok {
		t.Fatal("Reset via a stale handle rearmed a recycled slot")
	}
	if !tm3.Active() {
		t.Fatal("recycled timer lost by stale Reset")
	}
	s.RunAll()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

// TestResetDuringSameInstantPause rearms a timer that is already
// drained into the dispatch batch (Run paused mid-instant by
// StopWhen): it must leave the batch and fire at the new deadline.
func TestResetDuringSameInstantPause(t *testing.T) {
	s := NewSimulator()
	rec := &fireRecorder{}
	var tm2 Timer
	s.ScheduleEvent(time.Millisecond, recordFireEv, rec, 0)
	tm2 = s.ScheduleEvent(time.Millisecond, recordFireEv, rec, 1)
	s.ScheduleEvent(time.Millisecond, recordFireEv, rec, 2)
	s.StopWhen(func() bool { return len(rec.got) == 1 })
	s.RunAll()
	if len(rec.got) != 1 {
		t.Fatalf("StopWhen pause fired %v, want one event", rec.got)
	}
	s.StopWhen(nil)
	nt, ok := tm2.Reset(time.Millisecond)
	if !ok {
		t.Fatal("Reset of a batch-resident timer failed")
	}
	if !nt.Active() || s.Pending() != 2 {
		t.Fatalf("after Reset: Active=%v Pending=%d, want true/2", nt.Active(), s.Pending())
	}
	s.RunAll()
	want := []int{0, 2, 1} // id 1 moved to t=2ms
	for i := range want {
		if rec.got[i] != want[i] {
			t.Fatalf("fired %v, want %v", rec.got, want)
		}
	}
	if s.Now() != 2*time.Millisecond {
		t.Errorf("Now() = %v, want 2ms", s.Now())
	}
}

// --- allocation gates ---

// TestWheelCascadeZeroAlloc schedules deadlines across every wheel
// level (and the overflow list) and drains them, requiring the whole
// insert → cascade → batch-dispatch cycle to stay allocation-free in
// steady state.
func TestWheelCascadeZeroAlloc(t *testing.T) {
	if debugSequester {
		t.Skip("sussdebug: pool sequesters, steady state allocates by design")
	}
	s := NewSimulator()
	n := 0
	var tick EventFunc = func(ctx, arg any) { n++ }
	deltas := []time.Duration{
		0,
		17,                     // level 0
		3 * time.Microsecond,   // level 2
		700 * time.Microsecond, // level 3
		40 * time.Millisecond,  // level 4
		2 * time.Second,        // level 5
		90 * time.Minute,       // beyond wheelSpan: overflow + migration
	}
	warm := func() {
		for _, d := range deltas {
			s.ScheduleEvent(d, tick, nil, nil)
		}
		s.ScheduleEvent(time.Millisecond, tick, nil, nil).Stop()
		s.RunAll()
	}
	warm()
	allocs := testing.AllocsPerRun(200, warm)
	if allocs > 0 {
		t.Errorf("cascading schedule/fire cycle allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestResetZeroAlloc(t *testing.T) {
	if debugSequester {
		t.Skip("sussdebug: pool sequesters, steady state allocates by design")
	}
	s := NewSimulator()
	n := 0
	var tick EventFunc = func(ctx, arg any) { n++ }
	allocs := testing.AllocsPerRun(500, func() {
		tm := s.ScheduleEvent(time.Millisecond, tick, nil, nil)
		if nt, ok := tm.Reset(2 * time.Millisecond); ok {
			tm = nt
		}
		s.RunAll()
	})
	if allocs > 0 {
		t.Errorf("schedule/reset/fire cycle allocates %.1f allocs/op, want 0", allocs)
	}
}
