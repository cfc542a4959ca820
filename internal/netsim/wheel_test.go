package netsim

import (
	"fmt"
	"math"
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
// order, clock, Pending, NextEventAt and every Stop/Reset return value
// — issued both between Runs and from inside the fired callbacks,
// where they mutate the very window that is being dispatched.

type refTimer struct {
	at  time.Duration
	seq uint64
	pos int // index into refSched.alive, -1 when dead
}

type refSched struct {
	now    time.Duration
	seq    uint64
	timers []refTimer // indexed by handle = arm order
	alive  []int      // handles of live timers, unordered (swap-remove)
}

func (r *refSched) after(d time.Duration) time.Duration {
	if d < 0 {
		d = 0
	}
	if d > math.MaxInt64-r.now {
		return math.MaxInt64
	}
	return r.now + d
}

func (r *refSched) schedule(at time.Duration) {
	r.scheduleSeq(at, r.seq)
	r.seq++
}

// scheduleSeq arms at the key (at, seq) for a seq reserved earlier.
func (r *refSched) scheduleSeq(at time.Duration, seq uint64) {
	if at < r.now {
		at = r.now
	}
	r.timers = append(r.timers, refTimer{at: at, seq: seq, pos: len(r.alive)})
	r.alive = append(r.alive, len(r.timers)-1)
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
	t.at, t.seq = r.after(d), r.seq
	r.seq++
	return true
}

func (r *refSched) pending() int { return len(r.alive) }

// last returns the latest pending deadline, or now when idle.
func (r *refSched) last() time.Duration {
	at := r.now
	for _, h := range r.alive {
		at = max(at, r.timers[h].at)
	}
	return at
}

// next returns the handle of the (at, seq) minimum, -1 when idle.
func (r *refSched) next() int {
	best := -1
	for _, h := range r.alive {
		t := &r.timers[h]
		if best < 0 || t.at < r.timers[best].at ||
			(t.at == r.timers[best].at && t.seq < r.timers[best].seq) {
			best = h
		}
	}
	return best
}

// run fires until the queue drains, the next deadline is past until,
// or fire reports a stop (the reference's Halt / StopWhen).
func (r *refSched) run(until time.Duration, fire func(h int) (stop bool)) time.Duration {
	for {
		best := r.next()
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
		if fire(best) {
			return r.now
		}
	}
}

type fireRecorder struct{ got []int }

func recordFireEv(ctx, arg any) {
	rec := ctx.(*fireRecorder)
	rec.got = append(rec.got, arg.(int))
}

const tick = time.Duration(1) << tickBits

// fiveLevelSpan, 2^42 ns ≈ 73 minutes, is what wheel levels 0–4 cover:
// a deadline further out sits on level 5 or above.
const fiveLevelSpan = time.Duration(1) << (tickBits + wheelBits*5)

// randomDelay draws from a mixture that exercises every wheel level,
// several distinct deadlines inside one level-0 window, and zero
// delays.
func randomDelay(rng *rand.Rand) time.Duration {
	switch rng.Intn(10) {
	case 0:
		return 0
	case 1:
		return time.Duration(rng.Intn(int(tick))) // the window now is in, or the next
	case 2:
		return time.Duration(rng.Intn(int(wheelSlots * tick))) // level 0
	case 3, 4:
		return time.Duration(rng.Intn(int(16 * time.Millisecond))) // ≤ level 1
	case 5, 6:
		return time.Duration(rng.Intn(int(time.Second))) // ≤ level 2
	case 7:
		return time.Duration(rng.Intn(int(time.Hour))) // ≤ level 4
	case 8:
		return fiveLevelSpan<<uint(rng.Intn(20)) + time.Duration(rng.Intn(int(time.Hour))) // levels 5–8
	default:
		return time.Duration(rng.Int63n(int64(10 * time.Second))) // ≤ level 3
	}
}

// pickHandle draws a handle out of n, half the time one of the newest
// 64 — the ones likely to be pending, often in the window under
// dispatch — and otherwise any, stale ones included.
func pickHandle(rng *rand.Rand, n int) int {
	if n > 64 && rng.Intn(2) == 0 {
		return n - 1 - rng.Intn(64)
	}
	return rng.Intn(n)
}

// wheelOps and refOps present the wheel and the reference as the same
// operations, so one callback script (onFire) drives either. reserve
// and armReserved are a link line's pattern: take an arm sequence now,
// arm the oldest one taken at a deadline ≥ now later.
type schedOps interface {
	now() time.Duration
	handles() int
	armAt(at time.Duration)
	arm(d time.Duration)
	reserve()
	armReserved(d time.Duration)
	reset(h int, d time.Duration) bool
	stop(h int) bool
	halt()
}

type wheelOps struct {
	sim      *Simulator
	hs       []Timer
	reserved []uint64
	log      *[]int64
	cbRng    *rand.Rand
	stopNow  bool // read by the StopWhen predicate

	// inBucket and acrossBucket count the Resets of a level ≥ 1 timer
	// to a deadline inside its bucket's range (left on its list) and
	// outside it (placed anew).
	inBucket, acrossBucket int
	// level[h] is the wheel level handle h was last placed on by an arm
	// or a Reset; since only a cascade moves a timer between those, one
	// that fires from level L ≥ 1 counts in fromLevel[L].
	level     []int
	fromLevel [wheelLevels]int
}

// placed records the level of the timer just armed or reset on h.
func (w *wheelOps) placed(h int) {
	for len(w.level) <= h {
		w.level = append(w.level, 0)
	}
	if t := w.hs[h]; t.Active() {
		w.level[h] = int(w.sim.slots[t.idx].bucket) / wheelSlots
	}
}

func (w *wheelOps) now() time.Duration { return w.sim.Now() }
func (w *wheelOps) handles() int       { return len(w.hs) }
func (w *wheelOps) armAt(at time.Duration) {
	w.hs = append(w.hs, w.sim.ScheduleEventAt(at, wheelFired, w, len(w.hs)))
	w.placed(len(w.hs) - 1)
}
func (w *wheelOps) arm(d time.Duration) {
	w.hs = append(w.hs, w.sim.ScheduleEvent(d, wheelFired, w, len(w.hs)))
	w.placed(len(w.hs) - 1)
}
func (w *wheelOps) reserve() {
	w.reserved = append(w.reserved, w.sim.seq)
	w.sim.seq++
}
func (w *wheelOps) armReserved(d time.Duration) {
	if len(w.reserved) == 0 {
		return
	}
	seq := w.reserved[0]
	w.reserved = w.reserved[1:]
	w.hs = append(w.hs, w.sim.armSlot(w.sim.after(d), seq, wheelFired, w, len(w.hs)))
	w.placed(len(w.hs) - 1)
}
func (w *wheelOps) reset(h int, d time.Duration) bool {
	if lo, width, ok := w.bucketRange(h); ok {
		if at := w.sim.after(d); at >= lo && at < lo+width {
			w.inBucket++
		} else {
			w.acrossBucket++
		}
	}
	nt, ok := w.hs[h].Reset(d)
	if ok {
		w.hs[h] = nt
		w.placed(h)
	}
	return ok
}
func (w *wheelOps) stop(h int) bool { return w.hs[h].Stop() }

// bucketRange returns the time range of handle h's bucket when h is
// pending on a level ≥ 1 bucket.
func (w *wheelOps) bucketRange(h int) (lo, width time.Duration, ok bool) {
	t := w.hs[h]
	if !t.Active() {
		return 0, 0, false
	}
	sl := &w.sim.slots[t.idx]
	shift := tickBits + wheelBits*uint(sl.bucket>>wheelBits)
	if shift == tickBits {
		return 0, 0, false
	}
	return sl.at >> shift << shift, time.Duration(1) << shift, true
}

// halt alternates the two ways a callback can pause Run mid-window.
func (w *wheelOps) halt() {
	if len(*w.log)&1 == 0 {
		w.sim.Halt()
	} else {
		w.stopNow = true
	}
}

func wheelFired(ctx, arg any) {
	w := ctx.(*wheelOps)
	if lvl := w.level[arg.(int)]; lvl > 0 {
		w.fromLevel[lvl]++
	}
	onFire(w, w.cbRng, w.log, arg.(int))
}

type refOps struct {
	ref      *refSched
	reserved []uint64
	log      *[]int64
	stopped  bool
}

func (r *refOps) now() time.Duration     { return r.ref.now }
func (r *refOps) handles() int           { return len(r.ref.timers) }
func (r *refOps) armAt(at time.Duration) { r.ref.schedule(at) }
func (r *refOps) arm(d time.Duration)    { r.ref.schedule(r.ref.after(d)) }
func (r *refOps) reserve() {
	r.reserved = append(r.reserved, r.ref.seq)
	r.ref.seq++
}
func (r *refOps) armReserved(d time.Duration) {
	if len(r.reserved) == 0 {
		return
	}
	r.ref.scheduleSeq(r.ref.after(d), r.reserved[0])
	r.reserved = r.reserved[1:]
}
func (r *refOps) reset(h int, d time.Duration) bool { return r.ref.reset(h, d) }
func (r *refOps) stop(h int) bool                   { return r.ref.stop(h) }
func (r *refOps) halt()                             { r.stopped = true }

// onFire is the callback of every timer in the differential test, run
// once against the wheel and once against the reference from mirrored
// RNGs. It logs the firing and, re-entrantly, arms into the window
// being dispatched (zero and sub-tick delays) and beyond it, reserves
// sequences and arms reserved ones, resets and stops other handles,
// and now and then pauses the run.
func onFire(o schedOps, rng *rand.Rand, log *[]int64, id int) {
	*log = append(*log, int64(id), int64(o.now()))
	b2i := func(ok bool) int64 {
		if ok {
			return 1
		}
		return 0
	}
	switch c := rng.Intn(100); {
	case c < 10:
		o.arm(0)
	case c < 20:
		o.arm(time.Duration(rng.Intn(int(tick))))
	case c < 30:
		o.arm(randomDelay(rng))
	case c < 38:
		*log = append(*log, b2i(o.reset(pickHandle(rng, o.handles()), time.Duration(rng.Intn(int(tick))))))
	case c < 46:
		*log = append(*log, b2i(o.reset(pickHandle(rng, o.handles()), randomDelay(rng))))
	case c < 60:
		*log = append(*log, b2i(o.stop(pickHandle(rng, o.handles()))))
	case c < 63:
		o.halt()
	case c < 68:
		o.reserve()
	case c < 71:
		o.armReserved(time.Duration(rng.Intn(int(tick))))
	case c < 74:
		o.armReserved(randomDelay(rng))
	}
}

func TestWheelMatchesReferenceScheduler(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	ops := 250_000
	if testing.Short() {
		seeds, ops = seeds[:1], 50_000
	}
	wheelScript(t, seeds, ops, NewSimulator)
}

// wheelScript drives, per seed, an engine — which must be in the state
// NewSimulator gives — and a reference scheduler through ops mirrored
// random operations and holds every observable equal.
//
// The clock stays finite: the far advance runs to the latest pending
// deadline, but no further than a ceiling that rises with the op count
// to 7/8 of the int64 range. Far deadlines thus pass level-8 bucket
// boundaries (2^60 ns apart) a few times per seed, and no op runs at
// the end of time, where every arm would land on one deadline.
func wheelScript(t *testing.T, seeds []int64, ops int, engine func() *Simulator) {
	t.Helper()
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		var wlog, rlog []int64
		w := &wheelOps{sim: engine(), log: &wlog, cbRng: rand.New(rand.NewSource(seed + 100))}
		w.sim.StopWhen(func() bool {
			stop := w.stopNow
			w.stopNow = false
			return stop
		})
		r := &refOps{ref: &refSched{}, log: &rlog}
		refRng := rand.New(rand.NewSource(seed + 100))
		refFire := func(h int) bool {
			onFire(r, refRng, r.log, h)
			stop := r.stopped
			r.stopped = false
			return stop
		}
		sim, ref := w.sim, r.ref
		both := []schedOps{w, r}

		// run advances both schedulers and holds every observable equal.
		run := func(op int, until time.Duration) {
			t.Helper()
			wlog, rlog = wlog[:0], rlog[:0]
			end := sim.Run(until)
			refEnd := ref.run(until, refFire)
			if end != refEnd || sim.Now() != ref.now {
				t.Fatalf("seed %d op %d: Run(%v) = %v now %v, reference %v now %v",
					seed, op, until, end, sim.Now(), refEnd, ref.now)
			}
			if len(wlog) != len(rlog) {
				t.Fatalf("seed %d op %d: Run(%v) logged %d fire/op records, reference %d",
					seed, op, until, len(wlog), len(rlog))
			}
			for i := range wlog {
				if wlog[i] != rlog[i] {
					t.Fatalf("seed %d op %d: Run(%v) diverges at log record %d: got %d, reference %d",
						seed, op, until, i, wlog[i], rlog[i])
				}
			}
		}

		var lastAt time.Duration
		finite := 0 // ops that ran with the clock below math.MaxInt64
		for op := 0; op < ops; op++ {
			if sim.Now() < math.MaxInt64 {
				finite++
			}
			choice := rng.Intn(100)
			if ref.pending() > 256 && choice < 60 {
				choice = 60 + rng.Intn(40) // drain: force stop/run ops
			}
			switch {
			case choice < 41: // arm
				var at time.Duration
				switch {
				case choice < 5 && lastAt >= sim.Now():
					at = lastAt // exact tie with an earlier arm
				case choice < 12:
					// Either side of a nearby window edge: repeated draws
					// tie exactly on both sides of it.
					at = (sim.Now()>>tickBits+1+time.Duration(rng.Intn(3)))<<tickBits - time.Duration(rng.Intn(2))
				default:
					at = sim.Now() + randomDelay(rng)
				}
				lastAt = at
				for _, o := range both {
					o.armAt(at)
				}
			case choice < 43: // take an arm sequence, for a later arm
				for _, o := range both {
					o.reserve()
				}
			case choice < 45: // arm the oldest reserved sequence, at a deadline ≥ now
				d := randomDelay(rng)
				for _, o := range both {
					o.armReserved(d)
				}
			case choice < 60: // reset a random handle, stale ones included
				if w.handles() == 0 {
					continue
				}
				h, d := pickHandle(rng, w.handles()), randomDelay(rng)
				lo, width, ok := w.bucketRange(h)
				for try := 0; try < 8 && !ok && choice < 54; try++ {
					h = pickHandle(rng, w.handles())
					lo, width, ok = w.bucketRange(h)
				}
				if ok && choice < 54 {
					// A level ≥ 1 timer: to a deadline in its bucket's
					// range, left where it is, in the next range, or in
					// the same slot a lap on.
					at := lo + time.Duration(rng.Int63n(int64(width)))
					switch choice {
					case 51, 52:
						at += width
					case 53:
						at += wheelSlots * width
					}
					d = at - sim.Now()
				}
				if ok, refOK := w.reset(h, d), r.reset(h, d); ok != refOK {
					t.Fatalf("seed %d op %d: Reset(%d) = %v, reference %v", seed, op, h, ok, refOK)
				}
			case choice < 80: // stop a random handle, stale ones included
				if w.handles() == 0 {
					continue
				}
				h := pickHandle(rng, w.handles())
				if ok, refOK := w.stop(h), r.stop(h); ok != refOK {
					t.Fatalf("seed %d op %d: Stop(%d) = %v, reference %v", seed, op, h, ok, refOK)
				}
			default: // advance
				switch k := rng.Intn(20); {
				case k == 0:
					ceiling := time.Duration(float64(op+1) / float64(ops) * 7 / 8 * math.MaxInt64)
					run(op, min(ref.last(), ceiling))
				case k < 6:
					run(op, sim.Now()+time.Duration(rng.Int63n(int64(2*time.Second))))
				default:
					// A horizon a tick or two out: it usually falls strictly
					// inside a window and leaves part of it paused, for the
					// following ops to arm into, reset and stop.
					run(op, sim.Now()+time.Duration(rng.Intn(int(2*tick))))
				}
			}
			if sim.Pending() != ref.pending() || w.handles() != r.handles() {
				t.Fatalf("seed %d op %d: Pending() = %d over %d handles, reference %d over %d",
					seed, op, sim.Pending(), w.handles(), ref.pending(), r.handles())
			}
			if err := auditWheel(sim); err != "" {
				t.Fatalf("seed %d op %d: %s", seed, op, err)
			}
			if op%8 == 0 {
				at, ok := sim.NextEventAt()
				if h := ref.next(); ok != (h >= 0) || (ok && at != ref.timers[h].at) {
					t.Fatalf("seed %d op %d: NextEventAt() = %v, %v; reference handle %d", seed, op, at, ok, h)
				}
			}
		}
		if finite < ops*9/10 {
			t.Fatalf("seed %d: %d of %d ops ran with the clock below math.MaxInt64; want 90 %%", seed, finite, ops)
		}
		// randomDelay's level 5–8 draws reach the top level.
		for lvl := 1; lvl < wheelLevels; lvl++ {
			if w.fromLevel[lvl] == 0 {
				t.Fatalf("seed %d: no timer fired after a cascade from level %d; fired from levels 1–8: %v", seed, lvl, w.fromLevel[1:])
			}
		}
		t.Logf("seed %d: clock %v at the end, timers fired from levels 1–8: %v", seed, sim.Now(), w.fromLevel[1:])
		for sim.Pending() > 0 || ref.pending() > 0 { // a callback may pause a RunAll
			run(ops, math.MaxInt64)
		}
		if w.inBucket == 0 || w.acrossBucket == 0 {
			t.Fatalf("seed %d: %d Resets of a level ≥ 1 timer within its bucket's range, %d across; want both",
				seed, w.inBucket, w.acrossBucket)
		}
	}
}

// auditWheel checks the wheel's structure, which the firing order
// alone does not show: a stale occupancy bit or a broken back-link can
// leave it intact. Every list's links and bucket fields agree, each
// occupancy bit is set exactly when its list is non-empty, each
// level-0 list holds one window in (deadline, seq) order, each level
// ≥ 1 list one range that spans all its deadlines and starts past the
// cursor, at most a lap ahead of it, and the lists hold Pending() slots
// between them. It returns "" when all hold.
func auditWheel(s *Simulator) string {
	listed := 0
	for b := range s.bhead {
		lvl, slot := b/wheelSlots, b%wheelSlots
		if occ := s.occ[lvl]>>uint(slot)&1 != 0; occ != (s.bhead[b] >= 0) {
			return fmt.Sprintf("bucket %d: occupancy bit %v, head %d", b, occ, s.bhead[b])
		}
		prev := int32(-1)
		for i := s.bhead[b]; i >= 0; prev, i = i, s.slots[i].next {
			sl := &s.slots[i]
			if sl.bucket != int32(b) || sl.prev != prev {
				return fmt.Sprintf("bucket %d: slot %d has bucket %d, prev %d; want prev %d", b, i, sl.bucket, sl.prev, prev)
			}
			if listed++; listed > len(s.slots) {
				return fmt.Sprintf("bucket %d: the list has a cycle", b)
			}
			if lvl != 0 {
				shift := uint(wheelBits * lvl)
				lap, head := int64(sl.at)>>tickBits>>shift, int64(s.slots[s.bhead[b]].at)>>tickBits>>shift
				if int(lap&wheelMask) != slot || lap != head || lap<<shift <= s.cur || lap > s.cur>>shift+wheelSlots {
					return fmt.Sprintf("bucket %d: slot %d at %v, head at %v, cursor at tick %d", b, i, sl.at, s.slots[s.bhead[b]].at, s.cur)
				}
				continue
			}
			if et := int64(sl.at) >> tickBits; int(et&wheelMask) != slot || et < s.cur || et >= s.cur+wheelSlots {
				return fmt.Sprintf("bucket %d: slot %d at tick %d, cursor %d", b, i, et, s.cur)
			}
			if prev >= 0 {
				if p := &s.slots[prev]; p.at > sl.at || p.at == sl.at && p.seq >= sl.seq {
					return fmt.Sprintf("bucket %d: (%v, %d) before (%v, %d)", b, p.at, p.seq, sl.at, sl.seq)
				}
			}
		}
		if s.btail[b] != prev {
			return fmt.Sprintf("bucket %d: tail %d, last listed %d", b, s.btail[b], prev)
		}
	}
	if listed != s.Pending() {
		return fmt.Sprintf("%d slots listed, Pending() = %d", listed, s.Pending())
	}
	return ""
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

	s.ScheduleEventAt(deadline, recordFireEv, rec, 0) // level 2 at arm time

	// Advance close to the deadline so later arms land at lower levels.
	s.Schedule(295*time.Millisecond, func() {})
	s.Run(295 * time.Millisecond)
	s.ScheduleEventAt(deadline, recordFireEv, rec, 1) // level 1

	s.Schedule(deadline-100*time.Nanosecond, func() {})
	s.Run(deadline - 100*time.Nanosecond)
	s.ScheduleEventAt(deadline, recordFireEv, rec, 2) // level 0, direct

	// Armed during the window's dispatch: same instant, must fire last.
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

// --- far-future deadlines ---

// TestFarFutureDeadlines arms past what levels 0–4 cover: the deadlines
// sit on the upper levels, cancel there, stay pending across a horizon
// short of them, and fire in order once the clock gets there.
func TestFarFutureDeadlines(t *testing.T) {
	s := NewSimulator()
	rec := &fireRecorder{}
	far := fiveLevelSpan * 3 / 2
	s.ScheduleEventAt(far, recordFireEv, rec, 0)
	s.ScheduleEventAt(far+time.Nanosecond, recordFireEv, rec, 1)
	tm := s.ScheduleEventAt(far+2*time.Nanosecond, recordFireEv, rec, 2)
	s.ScheduleEvent(time.Millisecond, recordFireEv, rec, 3)
	if s.Pending() != 4 {
		t.Fatalf("Pending() = %d, want 4", s.Pending())
	}
	if !tm.Stop() {
		t.Fatal("Stop of a far-future timer failed")
	}
	// Horizon far beyond the near event but before the far ones.
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

// TestFarFutureEarliestStopped stops the earliest far-future timer and
// checks that the later one still fires, at its own deadline.
func TestFarFutureEarliestStopped(t *testing.T) {
	s := NewSimulator()
	rec := &fireRecorder{}
	far := fiveLevelSpan * 2
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

// --- deadline saturation ---

// A "never" delay must stay in the future: now+delay saturates at
// math.MaxInt64 instead of wrapping negative (and being clamped to
// now, firing at once).
func TestScheduleSaturatesAtMaxDeadline(t *testing.T) {
	s := NewSimulator()
	s.Schedule(time.Second, func() {})
	s.RunAll()
	rec := &fireRecorder{}
	s.Schedule(math.MaxInt64, func() { rec.got = append(rec.got, 0) })
	s.ScheduleEvent(math.MaxInt64, recordFireEv, rec, 1)
	if at, ok := s.NextEventAt(); !ok || at != math.MaxInt64 {
		t.Fatalf("NextEventAt() = %v, %v, want the saturated deadline", at, ok)
	}
	if end := s.Run(2 * time.Second); end != 2*time.Second || len(rec.got) != 0 || s.Pending() != 2 {
		t.Fatalf("Run(2s) = %v, fired %v, Pending %d: a never-delay must stay pending", end, rec.got, s.Pending())
	}
	s.RunAll()
	if len(rec.got) != 2 || rec.got[0] != 0 || rec.got[1] != 1 || s.Now() != math.MaxInt64 {
		t.Fatalf("RunAll fired %v at %v, want [0 1] at the end of time", rec.got, s.Now())
	}
}

// Reset used to store now+d unclamped: a wrapped negative deadline sat
// behind the cursor for good, and Run never returned. A saturated one
// sits on the top level.
func TestResetSaturatesAtMaxDeadline(t *testing.T) {
	s := NewSimulator()
	s.Schedule(time.Second, func() {})
	s.RunAll()
	fired := 0
	tm := s.Schedule(time.Millisecond, func() { fired++ })
	nt, ok := tm.Reset(math.MaxInt64)
	if !ok || !nt.Active() {
		t.Fatal("Reset of a pending timer failed")
	}
	if at, _ := s.NextEventAt(); at != math.MaxInt64 {
		t.Fatalf("NextEventAt() = %v, want the saturated deadline", at)
	}
	if lvl := s.slots[nt.idx].bucket / wheelSlots; lvl != wheelLevels-1 {
		t.Fatalf("reset timer sits on level %d, want the top level %d", lvl, wheelLevels-1)
	}
	if end := s.Run(2 * time.Second); end != 2*time.Second || fired != 0 || s.Pending() != 1 {
		t.Fatalf("Run(2s) = %v, fired %d, Pending %d: the timer must stay pending", end, fired, s.Pending())
	}
	s.RunAll()
	if fired != 1 || s.Pending() != 0 {
		t.Fatalf("RunAll: fired %d, Pending %d, want 1 and 0", fired, s.Pending())
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

// TestResetInBucketMatchesStopSchedule moves a level-1 timer within its
// bucket's range: the Reset places nothing, and the engine fires what
// Stop followed by a new Schedule fires, in the same order.
func TestResetInBucketMatchesStopSchedule(t *testing.T) {
	// A level-1 bucket spans 2^18 ns; ticks 192–255 of it are
	// 786 432–1 048 575 ns, all 1 ms or so ahead of a cursor at 0.
	const lo, hi = 786_432 * time.Nanosecond, 1_048_575 * time.Nanosecond
	run := func(inPlace bool) []int {
		s := NewSimulator()
		rec := &fireRecorder{}
		tm := s.ScheduleEvent(hi, recordFireEv, rec, 0)
		s.ScheduleEvent(lo, recordFireEv, rec, 1)
		s.ScheduleEvent(900*time.Microsecond, recordFireEv, rec, 2)
		if b := s.slots[tm.idx].bucket; b>>wheelBits != 1 {
			t.Fatalf("timer armed %v ahead sits in bucket %d, want level 1", hi, b)
		}
		placed := s.Placed
		if inPlace {
			if _, ok := tm.Reset(900 * time.Microsecond); !ok {
				t.Fatal("Reset of a pending timer failed")
			}
			if s.Placed != placed {
				t.Fatalf("in-range Reset placed %d times, want 0", s.Placed-placed)
			}
		} else {
			tm.Stop()
			s.ScheduleEvent(900*time.Microsecond, recordFireEv, rec, 0)
		}
		s.ScheduleEvent(900*time.Microsecond, recordFireEv, rec, 3)
		s.RunAll()
		return rec.got
	}
	got, want := run(true), run(false)
	if fmt.Sprint(got) != fmt.Sprint(want) || fmt.Sprint(got) != "[1 2 0 3]" {
		t.Fatalf("Reset fired %v, Stop + Schedule %v; want both [1 2 0 3]", got, want)
	}
}

// TestNextWindowAtLevelOneBoundary puts the next level-0 window on the
// last tick of the cursor's 64-tick block and a level-1 bucket right at
// the boundary after it. The window fires first; its callback arms into
// the boundary's window, which the level-1 bucket, armed earlier at the
// same deadline, must still reach first.
func TestNextWindowAtLevelOneBoundary(t *testing.T) {
	s := NewSimulator()
	rec := &fireRecorder{}
	last, boundary := 63*tick, 64*tick
	tb := s.ScheduleEventAt(boundary, recordFireEv, rec, 1)
	s.ScheduleEventAt(last, func(ctx, arg any) {
		recordFireEv(ctx, arg)
		s.ScheduleEventAt(boundary, recordFireEv, rec, 2)
	}, rec, 0)
	if b := s.slots[tb.idx].bucket; b != wheelSlots+1 {
		t.Fatalf("deadline %v armed at the cursor sits in bucket %d, want level 1 slot 1", boundary, b)
	}
	if end := s.Run(last); end != last || fmt.Sprint(rec.got) != "[0]" || s.cur != 63 || s.Cascades != 0 {
		t.Fatalf("Run(%v) = %v fired %v, cursor %d after %d cascades; want the last window alone", last, end, rec.got, s.cur, s.Cascades)
	}
	s.RunAll()
	if fmt.Sprint(rec.got) != "[0 1 2]" || s.cur != 64 || s.Cascades != 1 {
		t.Fatalf("fired %v, cursor %d after %d cascades; want [0 1 2] at 64 after 1", rec.got, s.cur, s.Cascades)
	}
}

// TestNextWindowAfterTiedCascade has a level-1 and a level-2 bucket
// start on the same tick. Cascading the first puts its event in the
// cursor's own 64-tick block, but the level-2 bucket, which starts at
// the cursor, holds an earlier one: the next window is only known once
// both have cascaded.
func TestNextWindowAfterTiedCascade(t *testing.T) {
	s := NewSimulator()
	rec := &fireRecorder{}
	boundary := time.Duration(wheelSlots*wheelSlots) * tick
	s.ScheduleEventAt(boundary+3*tick, recordFireEv, rec, 1) // level 2 from tick 0
	s.ScheduleEventAt(10*tick, func(ctx, arg any) {
		recordFireEv(ctx, arg)
		s.ScheduleEventAt(boundary+5*tick, recordFireEv, rec, 2) // level 1 from tick 10
	}, rec, 0)
	s.RunAll()
	if fmt.Sprint(rec.got) != "[0 1 2]" || s.Cascades != 2 {
		t.Fatalf("fired %v after %d cascades, want [0 1 2] after 2", rec.got, s.Cascades)
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

// TestResetDuringSameInstantPause rearms a timer on the list of the
// window a StopWhen pause cut short, mid-instant: it must leave that
// list and fire at the new deadline.
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
		t.Fatal("Reset of a timer in the paused window failed")
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

// TestWheelCascadeZeroAlloc schedules deadlines on wheel levels 0–6
// and drains them, requiring the whole insert → cascade → fire cycle
// to stay allocation-free in steady state.
func TestWheelCascadeZeroAlloc(t *testing.T) {
	if debugSequester {
		t.Skip("sussdebug: pool sequesters, steady state allocates by design")
	}
	s := NewSimulator()
	n := 0
	var tick EventFunc = func(ctx, arg any) { n++ }
	deltas := []time.Duration{
		0,
		17,                     // the window now is in
		30 * time.Microsecond,  // level 0
		700 * time.Microsecond, // level 1
		40 * time.Millisecond,  // level 2
		2 * time.Second,        // level 3
		20 * time.Minute,       // level 4
		90 * time.Minute,       // level 5
		30 * 24 * time.Hour,    // level 6
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
