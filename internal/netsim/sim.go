// Package netsim implements a deterministic discrete-event network
// simulator: an event loop with a virtual clock, links with finite
// rate, propagation delay and drop-tail queues, routers, hosts, and
// topology builders (multi-hop paths and dumbbells). It is
// single-threaded: every callback runs inside Simulator.Run, in virtual
// time order with FIFO ties, so nothing built on it locks. Timers live
// in a pooled, generation-counted arena, indexed by a hierarchical
// timing wheel (wheel.go); DESIGN.md ("Memory reuse", "Event
// scheduler") gives both.
package netsim

import (
	"fmt"
	"math"
	"time"
)

// EventFunc is a capture-free event callback. The scheduler stores ctx
// and arg in the timer slot, so scheduling with a package-level
// EventFunc allocates nothing — unlike a capturing closure, which
// costs one allocation per event. Pointers stored in ctx/arg (a *Link,
// a *Packet) incur no boxing.
type EventFunc func(ctx, arg any)

// runClosure adapts the closure-based Schedule API onto the
// capture-free core (a func value is a pointer, so storing it in ctx
// does not allocate; only the closure itself, if capturing, does).
var runClosure EventFunc = func(ctx, _ any) { ctx.(func())() }

// timerSlot is one arena entry. Slots are recycled through a free
// list; gen increments on every release so stale Timer handles are
// detectable. next/prev link the slot into the intrusive list of its
// wheel bucket (see wheel.go); bucket records which list, bucketNone
// when released.
type timerSlot struct {
	at       time.Duration
	seq      uint64
	fn       EventFunc
	ctx, arg any
	gen      uint32
	bucket   int32
	next     int32
	prev     int32
}

// Simulator owns the virtual clock and the pending-event queue.
// The zero value is not ready for use; call NewSimulator.
//
// An engine can be run more than once: Reset returns it to the state
// NewSimulator gives while keeping the memory it has grown (timer
// arena, packet slabs), so a worker that runs many short simulations
// pays for growing them once.
type Simulator struct {
	// Self-counters, plain fields to read after Run. Fired counts the
	// events Run has dispatched since NewSimulator or Reset — two runs of
	// one deterministic simulation fire the same number, a stronger
	// identity than equal results. Placed and Cascades price the wheel's
	// work over the same life: bucket placements (arms, rearms and
	// cascade re-placements) and buckets pulled apart into lower levels.
	// The high-waters say what the engine has grown to over all its lives
	// and are kept by Reset; Run brings them up to date as it returns (or
	// unwinds from a panic): ArenaSlots is the timer arena's size in
	// slots (the most timers ever pending at once), PoolPackets the
	// most packets ever out of the slabs in one life, PoolSlabs the slabs
	// allocated.
	Fired       uint64
	Placed      uint64
	Cascades    uint64
	ArenaSlots  int
	PoolPackets int
	PoolSlabs   int

	now    time.Duration
	seq    uint64 // insertion counter for deterministic FIFO tie-break
	halted bool

	// Timer arena: slots holds every timer ever in flight, free is the
	// recycle list. Pending slots are threaded into the timing wheel.
	slots []timerSlot
	free  []int32

	// Hierarchical timing wheel (wheel.go): cur is the wheel cursor, in
	// ticks — it trails the tick of min(now, every pending deadline) so
	// bucket placement deltas are never negative, and its level-0 bucket
	// is the window Run fires from. occ is the per-level occupancy
	// bitmap; bhead/btail are the bucket list ends, level-major.
	cur      int64
	occ      [wheelLevels]uint64
	bhead    [numWheelBuckets]int32
	btail    [numWheelBuckets]int32
	npending int

	pool PacketPool

	// Stop condition: if stopWhen is non-nil it is checked after every
	// event; Run returns early once it reports true.
	stopWhen func() bool
}

// NewSimulator returns a simulator with the clock at zero and an empty
// event queue.
func NewSimulator() *Simulator {
	s := &Simulator{}
	for i := range s.bhead {
		s.bhead[i] = -1
		s.btail[i] = -1
	}
	return s
}

// Reset returns the engine to exactly what NewSimulator gives — clock
// and arm sequence at zero, nothing pending, no StopWhen predicate,
// Halt forgotten, pool counters and the three work counters at zero —
// whatever state the last run left it in: drained, stopped at a
// horizon, halted inside a half-fired window, or abandoned by a
// callback that panicked. What the engine grew is kept: the timer
// arena, the packet slabs and the three high-water counters.
//
// Every timer still pending is released the way Stop releases it, so a
// handle taken before Reset reads dead afterwards (Active and Stop
// false, Reset refuses) instead of cancelling whichever timer of the
// next life reuses its slot; the arena is never truncated, so such a
// handle cannot index past it either. Slots and packets are handed out
// in the order a fresh engine hands them out (0, 1, 2 …; lowest address
// first): what ran before a Reset can influence neither the events of
// what runs after it nor where its state sits in memory.
func (s *Simulator) Reset() {
	s.free = s.free[:0]
	for i := len(s.slots) - 1; i >= 0; i-- {
		if sl := &s.slots[i]; sl.bucket != bucketNone {
			sl.release()
		}
		s.free = append(s.free, int32(i))
	}
	s.now, s.seq, s.halted, s.stopWhen = 0, 0, false, nil
	s.cur, s.occ, s.npending = 0, [wheelLevels]uint64{}, 0
	for i := range s.bhead {
		s.bhead[i] = -1
		s.btail[i] = -1
	}
	s.pool.reset()
	s.Fired, s.Placed, s.Cascades = 0, 0, 0
}

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Pool returns the simulator's packet free list. Endpoints acquire
// hot-path packets here and the owning component releases them; see
// PacketPool for the ownership rules.
func (s *Simulator) Pool() *PacketPool { return &s.pool }

// Timer is the public cancellable handle returned by the Schedule
// family. It is a value — {simulator, slot index, generation} — not a
// pointer, so handles themselves never allocate. A handle outlives its
// slot safely: once the slot is recycled the generation no longer
// matches and Stop/Active observe a dead timer.
type Timer struct {
	s   *Simulator
	idx int32
	gen uint32
}

// Stop cancels the timer and removes it from the pending set
// immediately (it does not linger until its fire time). Stopping an
// already-fired, already-stopped, or zero-value timer is a no-op. It
// reports whether the call prevented the event from firing.
func (t Timer) Stop() bool {
	if t.s == nil {
		return false
	}
	s := t.s
	sl := &s.slots[t.idx]
	if sl.gen != t.gen || sl.bucket == bucketNone {
		return false
	}
	s.unlink(t.idx)
	s.releaseSlot(t.idx)
	return true
}

// Active reports whether the timer is still pending.
func (t Timer) Active() bool {
	if t.s == nil {
		return false
	}
	sl := &t.s.slots[t.idx]
	return sl.gen == t.gen && sl.bucket != bucketNone
}

// Reset rearms a still-pending timer in place to fire after d of
// virtual time, keeping its callback and arguments: the slot never
// passes through the free list, which is the fast path for the
// RTO/TLP rearm-per-ACK pattern. A timer in a level ≥ 1 bucket whose
// range still spans the new deadline stays on that list untouched (the
// bucket is unordered and its cascade re-places by key); any other is
// unlinked and placed anew. A negative d is treated as zero, and now+d
// saturates at math.MaxInt64.
//
// The rearmed timer takes a fresh insertion sequence number and a
// fresh generation, so event ordering is byte-identical to Stop
// followed by a new Schedule, and handles from before the Reset
// (including t itself) become stale no-ops. The new handle is
// returned. If the timer already fired or was stopped, Reset
// schedules nothing and reports false.
func (t Timer) Reset(d time.Duration) (Timer, bool) {
	if t.s == nil {
		return Timer{}, false
	}
	s := t.s
	sl := &s.slots[t.idx]
	if sl.gen != t.gen || sl.bucket == bucketNone {
		return Timer{}, false
	}
	was := sl.at
	sl.at, sl.seq = s.after(d), s.seq
	s.seq++
	sl.gen++
	if shift := tickBits + wheelBits*uint(sl.bucket>>wheelBits); shift == tickBits || int64(sl.at)>>shift != int64(was)>>shift {
		s.unlink(t.idx)
		s.place(t.idx)
	}
	return Timer{s: s, idx: t.idx, gen: sl.gen}, true
}

// after returns the deadline d from now: a negative d is treated as
// zero, and a sum past the end of time saturates at math.MaxInt64 ("never"
// stays in the future instead of wrapping into the past).
func (s *Simulator) after(d time.Duration) time.Duration {
	if d <= 0 {
		return s.now
	}
	if at := s.now + d; at > s.now {
		return at
	}
	return math.MaxInt64
}

// Schedule runs fn after delay of virtual time. A negative delay is
// treated as zero (fn runs at the current time, after already-queued
// events for this instant). The returned Timer can cancel the event.
func (s *Simulator) Schedule(delay time.Duration, fn func()) Timer {
	if fn == nil {
		panic("netsim: Schedule with nil fn")
	}
	return s.scheduleSlot(s.after(delay), runClosure, fn, nil)
}

// ScheduleAt runs fn at absolute virtual time at. Times in the past
// are clamped to now.
func (s *Simulator) ScheduleAt(at time.Duration, fn func()) Timer {
	if fn == nil {
		panic("netsim: ScheduleAt with nil fn")
	}
	return s.scheduleSlot(at, runClosure, fn, nil)
}

// ScheduleEvent runs fn(ctx, arg) after delay of virtual time without
// allocating: fn should be a package-level EventFunc and ctx/arg carry
// the state a closure would otherwise capture.
func (s *Simulator) ScheduleEvent(delay time.Duration, fn EventFunc, ctx, arg any) Timer {
	if fn == nil {
		panic("netsim: ScheduleEvent with nil fn")
	}
	return s.scheduleSlot(s.after(delay), fn, ctx, arg)
}

// ScheduleEventAt is ScheduleEvent with an absolute virtual time.
// Times in the past are clamped to now.
func (s *Simulator) ScheduleEventAt(at time.Duration, fn EventFunc, ctx, arg any) Timer {
	if fn == nil {
		panic("netsim: ScheduleEventAt with nil fn")
	}
	return s.scheduleSlot(at, fn, ctx, arg)
}

func (s *Simulator) scheduleSlot(at time.Duration, fn EventFunc, ctx, arg any) Timer {
	seq := s.seq
	s.seq++
	return s.armSlot(at, seq, fn, ctx, arg)
}

// armSlot arms fn at the dispatch key (at, seq), where seq is an arm
// sequence the caller took from s.seq, now or earlier. A link reserves
// one per packet as it propagates and arms it only once the packet
// heads its line, so each delivery fires at the key its own timer
// would have had. Times in the past are clamped to now.
func (s *Simulator) armSlot(at time.Duration, seq uint64, fn EventFunc, ctx, arg any) Timer {
	if at < s.now {
		at = s.now
	}
	var idx int32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.slots = append(s.slots, timerSlot{})
		idx = int32(len(s.slots) - 1)
	}
	sl := &s.slots[idx]
	sl.at, sl.seq, sl.fn, sl.ctx, sl.arg = at, seq, fn, ctx, arg
	s.place(idx)
	s.npending++
	return Timer{s: s, idx: idx, gen: sl.gen}
}

// release marks the slot spent: the generation bump invalidates every
// outstanding handle, and clearing fn/ctx/arg lets captured state be
// collected.
func (sl *timerSlot) release() {
	sl.gen++
	sl.fn, sl.ctx, sl.arg = nil, nil, nil
	sl.bucket = bucketNone
}

// releaseSlot recycles a slot. The caller must already have unlinked it
// from its bucket.
func (s *Simulator) releaseSlot(idx int32) {
	s.slots[idx].release()
	s.free = append(s.free, idx)
	s.npending--
}

// StopWhen installs a predicate checked after every event; when it
// returns true, Run returns. Pass nil to clear.
func (s *Simulator) StopWhen(pred func() bool) { s.stopWhen = pred }

// StopPred returns the currently installed StopWhen predicate (nil when
// none). Wrappers that need to run under an additional stop condition —
// the runner's wall-clock watchdog — read it to compose with and later
// restore the caller's predicate instead of clobbering it.
func (s *Simulator) StopPred() func() bool { return s.stopWhen }

// Halt stops the run loop after the current event completes.
func (s *Simulator) Halt() { s.halted = true }

// Run executes events in time order until the queue drains, the clock
// passes until, Halt is called, or the StopWhen predicate fires.
// It returns the virtual time at which it stopped.
//
// Clock semantics on each stop mode: after a drain, Halt, or StopWhen
// stop, Now() equals the time of the last executed event (for StopWhen
// this holds even when later events share the same instant); after a
// horizon stop, Now() equals until. The clock never moves backwards —
// a Run horizon already in the past executes nothing and leaves Now()
// unchanged.
//
// Run fires the head of the cursor's level-0 list, one event at a
// time, and moves the cursor on when the list is empty; a stop inside
// a window leaves the rest of it pending on its list.
func (s *Simulator) Run(until time.Duration) time.Duration {
	defer s.noteHighWaters()
	s.halted = false
	for {
		idx := s.bhead[uint64(s.cur)&wheelMask]
		if idx < 0 {
			if !s.wheelNext(int64(until)) {
				if s.npending > 0 && until > s.now {
					s.now = until
				}
				return s.now
			}
			continue
		}
		sl := &s.slots[idx]
		if sl.at > until {
			if until > s.now {
				s.now = until
			}
			return s.now
		}
		s.unlink(idx)
		s.now = sl.at
		fn, ctx, arg := sl.fn, sl.ctx, sl.arg
		// Recycle before firing: during its own callback the timer reads
		// as spent (Active false, Stop no-op), and the slot is
		// immediately reusable by events the callback schedules.
		s.releaseSlot(idx)
		s.Fired++
		fn(ctx, arg)
		if (s.stopWhen != nil && s.stopWhen()) || s.halted {
			return s.now
		}
	}
}

// noteHighWaters brings the high-water counters up to date as Run
// returns or unwinds.
func (s *Simulator) noteHighWaters() {
	s.ArenaSlots, s.PoolPackets, s.PoolSlabs = len(s.slots), s.pool.peak, len(s.pool.slabs)
}

// RunAll executes events until the queue drains (or Halt/StopWhen).
// It is Run with an effectively infinite horizon.
func (s *Simulator) RunAll() time.Duration {
	return s.Run(time.Duration(math.MaxInt64))
}

// Pending returns the number of events still queued. The count is
// exact: Stop removes a timer from the pending set at cancellation
// time, so cancelled timers are never counted, and events of a window
// a stop cut short still are. A link's in-flight
// packets count as the one event they have armed, their line's head.
func (s *Simulator) Pending() int { return s.npending }

// String implements fmt.Stringer for debugging.
func (s *Simulator) String() string {
	return fmt.Sprintf("netsim.Simulator{now: %v, pending: %d}", s.now, s.npending)
}
